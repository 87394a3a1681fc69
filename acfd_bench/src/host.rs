//! What the benchmark reads from the machine it runs on: the host
//! fingerprint, the process's peak memory, the streaming-bandwidth
//! roofline, and a scratch directory inside the working directory.

use serde::json::Value;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

const MIB: u64 = 1 << 20;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `key: value` lookup in a `/proc` text file, value in kB → bytes when
/// it carries the `kB` suffix.
fn proc_field(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

fn kb_field(path: &str, key: &str) -> Option<u64> {
    let v = proc_field(&read(path)?, key)?;
    v.strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()
        .map(|kb| kb * 1024)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the largest cache of the highest level cpu0 reports.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k * 1024),
            None => size
                .strip_suffix('M')
                .and_then(|m| m.parse::<u64>().ok())
                .map(|m| m * MIB),
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|b| (level, bytes) > b) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|b| b.1)
}

pub fn ram_bytes() -> Option<u64> {
    kb_field("/proc/meminfo", "MemTotal")
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    kb_field("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / MIB as f64
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint every document carries. Two documents from
/// different fingerprints are not comparable.
pub fn fingerprint() -> Value {
    let int = |v: Option<u64>| v.map_or(Value::Null, |b| Value::Int(b.into()));
    let cpu = read("/proc/cpuinfo")
        .and_then(|t| proc_field(&t, "model name"))
        .unwrap_or_else(|| "unknown".into());
    Value::obj(vec![
        ("nproc", Value::Int(nproc() as i128)),
        ("cpu_model", Value::Str(cpu)),
        ("llc_bytes", int(llc_bytes())),
        ("ram_bytes", int(ram_bytes())),
        (
            "triad_array_bytes",
            Value::Int(8 * triad_elems(ram_bytes()) as i128),
        ),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Elements per triad array: 256 MiB of `f64`, capped at RAM/8 per
/// array so the three arrays never take more than 3/8 of RAM. Not
/// STREAM's 4 × LLC: the sandbox reports its socket's 260 MiB L3, of
/// which a 2-vCPU slice sees little — the triad reads 12 GB/s at every
/// size from 32 MiB to 1 GiB per array — and page-faulting 3 × 1 GiB in
/// took 10–15 s of every traced run.
pub fn triad_elems(ram: Option<u64>) -> usize {
    let bytes = (256 * MIB).min(ram.map_or(u64::MAX, |r| r / 8));
    (bytes / 8) as usize
}

/// The benchmark's own single-threaded STREAM triad, `a = b + s·c`:
/// best of three passes, counting the 24 bytes per element STREAM
/// counts. `quick` shrinks the arrays to 32 MiB.
pub fn triad_gbs(quick: bool) -> f64 {
    let n = if quick {
        (32 * MIB / 8) as usize
    } else {
        triad_elems(ram_bytes())
    };
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for pass in 0..3 {
        let s = 3.0 + pass as f64;
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&mut a);
    }
    assert_eq!(a[n / 2], 1.0 + 5.0 * 2.0);
    (24 * n) as f64 / best / 1e9
}

/// A scratch directory under the working directory (the benchmark must
/// not write outside its checkout), removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let dir = std::env::current_dir()?
            .join(".acfd_bench_tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the parent is shared between concurrent runs; this only
        // succeeds for the last one out
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_arrays_are_256_mib_at_most_an_eighth_of_ram() {
        let gib = 1u64 << 30;
        assert_eq!(triad_elems(Some(16 * gib)), (256 * MIB / 8) as usize);
        assert_eq!(triad_elems(Some(2 * gib)), (256 * MIB / 8) as usize);
        // little RAM: the cap wins
        assert_eq!(triad_elems(Some(gib)), (128 * MIB / 8) as usize);
        // nothing known: the full size
        assert_eq!(triad_elems(None), (256 * MIB / 8) as usize);
    }

    #[test]
    fn proc_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t    1688 kB\nmodel name\t: Some CPU @ 2GHz\n";
        assert_eq!(proc_field(text, "VmHWM").as_deref(), Some("1688 kB"));
        assert_eq!(
            proc_field(text, "model name").as_deref(),
            Some("Some CPU @ 2GHz")
        );
        assert_eq!(proc_field(text, "absent"), None);
    }
}
