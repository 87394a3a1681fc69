//! Same flags, same behaviour, on every launch path: `acfc` describes a
//! launch once (`autocfd::cli::CommonOpts`), so what `--verify`,
//! `--profile` and `--telemetry` do cannot depend on whether the mesh
//! ran on rank-threads or worker processes, nor on whether the launch
//! was fresh or a resume. Process-level, sprayer-small on 2x2.

use autocfd_cfd_kernels::{sprayer_program, CaseParams};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn acfc() -> Command {
    // referencing the worker binary forces cargo to build it alongside
    let _ = env!("CARGO_BIN_EXE_acfd-worker");
    Command::new(env!("CARGO_BIN_EXE_acfc"))
}

/// A scratch directory holding `sprayer.f`; returns (dir, source path).
fn scratch(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("acfd-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("sprayer.f");
    std::fs::write(&src, sprayer_program(&CaseParams::sprayer_small())).unwrap();
    (dir.clone(), src.to_string_lossy().into_owned())
}

fn run(args: &[&str]) -> (Output, String) {
    let out = acfc().args(args).output().expect("spawn acfc");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out, stderr)
}

fn spools(dir: &Path) -> usize {
    let names = std::fs::read_dir(dir).map(|d| d.flatten().collect::<Vec<_>>());
    names
        .unwrap_or_default()
        .iter()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("telemetry-rank-") && name.ends_with(".jsonl")
        })
        .count()
}

#[test]
fn run_and_trace_mean_the_same_on_both_transports() {
    let (dir, src) = scratch("run");
    for flags in [
        &[][..],
        &["--verify-exact"],
        &["--verify", "--profile"],
        &["--verify", "--overlap"],
    ] {
        let launch = |transport: &str| {
            let mut args = vec!["run", &src, "--partition", "2x2", "--transport", transport];
            args.extend(flags);
            run(&args)
        };
        let ((inproc, inproc_err), (tcp, tcp_err)) = (launch("inproc"), launch("tcp"));
        assert!(inproc.status.success(), "{flags:?}:\n{inproc_err}");
        assert_eq!(
            inproc.status.code(),
            tcp.status.code(),
            "{flags:?}:\n{tcp_err}"
        );
        assert!(!inproc.stdout.is_empty(), "{flags:?}: the program's output");
        assert_eq!(inproc.stdout, tcp.stdout, "{flags:?}: stdout differs");
        for (transport, err) in [("inproc", &inproc_err), ("tcp", &tcp_err)] {
            assert_eq!(
                err.contains("verified — max |seq - par| = 0e0"),
                !flags.is_empty(),
                "{transport} {flags:?}:\n{err}"
            );
            assert_eq!(
                err.contains(" msg"),
                flags.contains(&"--profile"),
                "{transport} {flags:?}: a wire table iff --profile:\n{err}"
            );
        }
    }

    // `trace --verify --check` verifies wherever the ranks ran (the
    // coverage floor is the loaded-CI-machine one, not the point here)
    for transport in ["inproc", "tcp"] {
        let trace = dir.join(format!("{transport}.trace"));
        let (out, err) = run(&[
            "trace",
            &src,
            "--partition",
            "2x2",
            "--transport",
            transport,
            "--verify",
            "--check",
            "--min-coverage",
            "0.5",
            "--trace-dir",
            &trace.to_string_lossy(),
        ]);
        assert!(out.status.success(), "{transport}:\n{err}");
        assert!(err.contains("verified — max"), "{transport}:\n{err}");
        assert!(err.contains("trace checks passed"), "{transport}:\n{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resume_is_a_fresh_launch_with_an_epoch() {
    let (dir, src) = scratch("resume");
    let ck = dir.join("ck").to_string_lossy().into_owned();
    let (out, err) = run(&[
        "run",
        &src,
        "--transport",
        "tcp",
        "--partition",
        "2x2",
        "--checkpoint-every",
        "2",
        "--checkpoint-dir",
        &ck,
        "--chaos-abort-after",
        "7",
        "--timeout-ms",
        "2000",
    ]);
    assert_eq!(out.status.code(), Some(3), "chaos run:\n{err}");

    // telemetry, the profile and verification reach a resumed mesh like
    // a fresh one, on both transports: spools land in --trace-dir
    let profiles = ["rank 3: ", "acfd-worker[rank 3]:   "];
    for (transport, profile) in ["inproc", "tcp"].into_iter().zip(profiles) {
        let trace = dir.join(format!("{transport}.trace"));
        let (out, err) = run(&[
            "resume",
            &ck,
            "--transport",
            transport,
            "--verify-exact",
            "--profile",
            "--telemetry-ms",
            "5",
            "--trace-dir",
            &trace.to_string_lossy(),
        ]);
        assert!(out.status.success(), "{transport}:\n{err}");
        assert!(
            err.contains("verified — max |seq - par| = 0e0"),
            "{transport}:\n{err}"
        );
        assert!(
            err.contains(profile),
            "{transport}: per-phase wire rows:\n{err}"
        );
        assert_eq!(spools(&trace), 4, "{transport}: one spool per rank");
        assert!(
            trace.join("rank-3.jsonl").exists(),
            "{transport}: journaled"
        );
    }

    // a manifest of the engine-selecting schema 2 is refused before
    // anything is launched or the directory is touched
    let manifest = Path::new(&ck).join("run.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(!text.contains("engine"), "{text}");
    let doctored = text.replace("\"version\":3", "\"version\":2,\"engine\":\"tree\"");
    std::fs::write(&manifest, &doctored).unwrap();
    let (out, err) = run(&["resume", &ck, "--transport", "tcp"]);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("schema version 2"), "{err}");
    assert!(!err.contains("spawning"), "no worker may start:\n{err}");
    assert_eq!(std::fs::read_to_string(&manifest).unwrap(), doctored);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_is_not_a_failure() {
    for exe in [
        env!("CARGO_BIN_EXE_acfc"),
        env!("CARGO_BIN_EXE_acfd-worker"),
    ] {
        let out = Command::new(exe).arg("--help").output().expect("spawn");
        assert_eq!(out.status.code(), Some(0), "{exe}");
        assert!(out.stderr.is_empty(), "{exe}: usage goes to stdout");
        let usage = String::from_utf8_lossy(&out.stdout);
        // every launch option both binaries share is in both texts
        for flag in ["--threads", "--telemetry-ms", "--verify-exact"] {
            assert!(
                usage.contains(flag),
                "{exe}: `{flag}` missing from\n{usage}"
            );
        }
    }
    // the launcher→worker half of the description is not a user flag
    let (out, err) = run(&["run", "x.f", "--resume-epoch", "3"]);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("unknown argument `--resume-epoch`"), "{err}");
}

/// Every run takes the compiled-kernel path: a plain `acfc plan` records
/// the kernel nests, and neither an engine flag nor an engine-selecting
/// (schema 2) plan artifact is accepted.
#[test]
fn the_one_engine_leaves_nothing_to_select() {
    let (dir, src) = scratch("engine");
    let plan = dir.join("plan.json").to_string_lossy().into_owned();
    let (out, err) = run(&["plan", &src, "--partition", "2x2", "-o", &plan]);
    assert!(out.status.success(), "{err}");
    let text = std::fs::read_to_string(&plan).unwrap();
    assert!(text.starts_with("{\"version\":3,"), "{text}");
    assert!(!text.contains("\"kernel_nests\":[]"), "{text}");
    assert!(!text.contains("engine"), "{text}");

    let stale = dir.join("v2.json").to_string_lossy().into_owned();
    let v2 = text.replace("\"version\":3", "\"version\":2,\"engine\":\"tree\"");
    std::fs::write(&stale, v2).unwrap();
    let (out, err) = run(&["run", &src, "--partition", "2x2", "--plan", &stale]);
    assert_eq!(out.status.code(), Some(4), "{err}");
    assert!(err.contains("schema version 2"), "{err}");

    // the flag that chose an engine is as unknown as any other word
    let [engine, bogus] = ["engine", "bogus"].map(|name| format!("--{name}"));
    let (out, bogus_err) = run(&["run", &src, &bogus]);
    assert_eq!(out.status.code(), Some(1), "{bogus_err}");
    let (out, err) = run(&["run", &src, &engine, "kernel"]);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(err, bogus_err.replace(&bogus, &engine));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compile_server_flags_are_unknown_arguments() {
    let (dir, src) = scratch("local");
    // there is no compile server to submit to, watch, or run on: the
    // flags and the subcommand that named one are unknown arguments
    let [server, attach] = ["server", "attach"].map(|name| format!("--{name}"));
    for (args, refused) in [
        (vec!["run", &src, &server, "127.0.0.1:1"], server.as_str()),
        (vec!["compile", &src, "--partition", "2x2"], src.as_str()),
        (vec!["top", &attach, "127.0.0.1:1"], attach.as_str()),
    ] {
        let (out, err) = run(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}:\n{err}");
        assert!(
            err.contains(&format!("unknown argument `{refused}`")),
            "{args:?}:\n{err}"
        );
        assert!(!err.contains("spawning"), "no worker may start:\n{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
