//! End-to-end tests of the in-process compile cache: cache semantics
//! (hit / miss / eviction), single-flight deduplication, failure
//! containment, and served plans equal to local compiles byte for byte.

use autocfd::compile_service::{
    Backend, Client, CompileReq, ErrorClass, Request, Service, ServiceConfig, ServiceError,
    ServiceHandle,
};
use autocfd::serve::PipelineBackend;
use autocfd_cfd_kernels::{aerofoil_program, sprayer_program, CaseParams};
use serde::json::Value;
use std::time::Duration;

fn spawn(backend: Box<dyn Backend>, config: ServiceConfig) -> ServiceHandle {
    Service::bind("127.0.0.1:0", backend, config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn sprayer_req() -> CompileReq {
    CompileReq {
        source: sprayer_program(&CaseParams::sprayer_small()),
        parts: vec![2, 2],
        distance: None,
        optimize: true,
        engine: autocfd::codegen::EnginePref::Kernel,
        threads: 1,
    }
}

fn aerofoil_req() -> CompileReq {
    CompileReq {
        source: aerofoil_program(&CaseParams::aerofoil_small()),
        parts: vec![2, 1, 1],
        distance: None,
        optimize: true,
        engine: autocfd::codegen::EnginePref::Kernel,
        threads: 1,
    }
}

fn compile_verdict(client: &mut Client, req: &CompileReq) -> (String, String) {
    let resp = client
        .request(&Request::Compile(req.clone()), &mut |_| {})
        .expect("compile request");
    let field = |k: &str| {
        resp.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("response missing `{k}`: {resp}"))
            .to_string()
    };
    (field("cache"), field("digest"))
}

fn stat(handle: &ServiceHandle, key: &str) -> i128 {
    let mut client = Client::connect(handle.addr()).expect("connect");
    let resp = client.request(&Request::Stats, &mut |_| {}).expect("stats");
    resp.get(key)
        .and_then(Value::as_int)
        .unwrap_or_else(|| panic!("stats missing `{key}`: {resp}"))
}

#[test]
fn warm_compile_skips_frontend_entirely() {
    let handle = spawn(Box::new(PipelineBackend::new()), ServiceConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let req = sprayer_req();
    let (first, d1) = compile_verdict(&mut client, &req);
    let (second, d2) = compile_verdict(&mut client, &req);
    assert_eq!((first.as_str(), second.as_str()), ("miss", "hit"));
    assert_eq!(d1, d2);
    // the proof: the pipeline ran exactly once for two served compiles
    assert_eq!(handle.pipeline_invocations(), 1);
    assert_eq!(stat(&handle, "hits"), 1);
    assert_eq!(stat(&handle, "misses"), 1);
    handle.shutdown();
}

/// A backend whose compile is slow enough that two concurrent identical
/// requests reliably overlap — the single-flight race window made wide.
struct SlowBackend(PipelineBackend);

impl Backend for SlowBackend {
    fn compile(&self, req: &CompileReq) -> Result<String, ServiceError> {
        std::thread::sleep(Duration::from_millis(300));
        self.0.compile(req)
    }
}

#[test]
fn concurrent_identical_requests_compile_once() {
    let handle = spawn(
        Box::new(SlowBackend(PipelineBackend::new())),
        ServiceConfig::default(),
    );
    let addr = handle.addr();
    let threads: Vec<_> = (0..2)
        .map(|i| {
            std::thread::spawn(move || {
                // stagger the follower into the leader's compile window
                std::thread::sleep(Duration::from_millis(50 * i));
                let mut client = Client::connect(addr).expect("connect");
                compile_verdict(&mut client, &sprayer_req())
            })
        })
        .collect();
    let mut verdicts: Vec<(String, String)> = threads
        .into_iter()
        .map(|t| t.join().expect("join"))
        .collect();
    verdicts.sort();
    assert_eq!(verdicts[0].1, verdicts[1].1, "same digest for both");
    let cache: Vec<&str> = verdicts.iter().map(|(c, _)| c.as_str()).collect();
    assert_eq!(cache, ["coalesced", "miss"]);
    // two clients, two responses, ONE pipeline run
    assert_eq!(handle.pipeline_invocations(), 1);
    handle.shutdown();
}

#[test]
fn lru_eviction_forces_recompile() {
    let handle = spawn(
        Box::new(PipelineBackend::new()),
        ServiceConfig { capacity: 1 },
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(compile_verdict(&mut client, &sprayer_req()).0, "miss");
    // different program: evicts the sprayer entry from the 1-slot cache
    assert_eq!(compile_verdict(&mut client, &aerofoil_req()).0, "miss");
    assert_eq!(stat(&handle, "evictions"), 1);
    // the evicted entry really is gone — this recompiles
    assert_eq!(compile_verdict(&mut client, &sprayer_req()).0, "miss");
    assert_eq!(handle.pipeline_invocations(), 3);
    handle.shutdown();
}

#[test]
fn malformed_source_is_typed_error_and_connection_survives() {
    let handle = spawn(Box::new(PipelineBackend::new()), ServiceConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let bad = CompileReq {
        source: "program broken\nthis is not fortran\nend\n".into(),
        parts: vec![2, 2],
        distance: None,
        optimize: true,
        engine: autocfd::codegen::EnginePref::Kernel,
        threads: 1,
    };
    let err = client
        .request(&Request::Compile(bad), &mut |_| {})
        .expect_err("garbage source must fail");
    assert_eq!(err.class, ErrorClass::Compile);
    // the accept loop and this very connection keep serving
    let missing_parts = CompileReq {
        parts: vec![],
        ..sprayer_req()
    };
    let err = client
        .request(&Request::Compile(missing_parts), &mut |_| {})
        .expect_err("empty partition must be a bad request");
    assert_eq!(err.class, ErrorClass::BadRequest);
    assert_eq!(compile_verdict(&mut client, &sprayer_req()).0, "miss");
    handle.shutdown();
}

/// The served plan is the plan a local compile emits, byte for byte,
/// on the miss that compiles it and on the hit that does not.
#[test]
fn served_plan_is_the_local_plan_byte_for_byte() {
    let handle = spawn(Box::new(PipelineBackend::new()), ServiceConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    for req in [sprayer_req(), aerofoil_req()] {
        let opts = autocfd::CompileOptions::with_partition(
            &req.parts.iter().map(|&p| p as u32).collect::<Vec<_>>(),
        );
        let local = autocfd::compile(&req.source, &opts).expect("local compile");
        let local = autocfd::planio::plan_to_json(&local.spmd_plan);
        for expect in ["miss", "hit"] {
            let resp = client
                .request(&Request::Compile(req.clone()), &mut |_| {})
                .expect("compile request");
            assert_eq!(resp.get("cache").and_then(Value::as_str), Some(expect));
            assert_eq!(
                resp.get("plan").and_then(Value::as_str),
                Some(local.as_str()),
                "{expect}: served plan differs from the local compile's"
            );
        }
    }
    handle.shutdown();
}
