//! The compile service's pipeline backend: plugs the real Auto-CFD
//! pipeline and the in-process SPMD harness into
//! [`autocfd_compile_service::Service`].
//!
//! The split matters for cache economics:
//!
//! * a cold `Compile` runs the full pipeline (parse → IR → partition →
//!   dependence analysis → sync optimization → restructure) — this is
//!   the only path through [`PipelineBackend::compile`], so the
//!   service's pipeline-invocation counter counts exactly these;
//! * a warm `Compile` is served straight from the cache — no frontend;
//! * a `Run` re-parses only the cached *generated* source (a plain
//!   parse, no analysis) and interprets it against the cached plan,
//!   which goes through [`crate::planio`] like every other plan
//!   artifact.

use crate::obs;
use crate::planio;
use crate::{compile, CompileOptions};
use autocfd_compile_service::proto::{CompileReq, ErrorClass, RunReq, ServiceError, StreamItem};
use autocfd_compile_service::{Backend, CacheEntry, CompiledUnit};
use autocfd_interp::spmd::verify_rank_owned_region;
use autocfd_interp::RunConfig;
use serde::json::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The production [`Backend`]: compiles through [`crate::compile`] and
/// executes on in-process rank-threads with journaling.
#[derive(Debug, Default)]
pub struct PipelineBackend {
    scratch_seq: AtomicU64,
}

impl PipelineBackend {
    /// A fresh backend.
    pub fn new() -> PipelineBackend {
        PipelineBackend::default()
    }

    /// A per-run scratch directory for journals, unique across
    /// concurrent runs and processes; removed after streaming.
    fn scratch_dir(&self) -> PathBuf {
        std::env::temp_dir().join(format!(
            "acfd-compile-{}-{}",
            std::process::id(),
            self.scratch_seq.fetch_add(1, Ordering::SeqCst)
        ))
    }
}

fn options_of(req: &CompileReq) -> Result<CompileOptions, ServiceError> {
    if req.parts.is_empty() {
        return Err(ServiceError::new(
            ErrorClass::BadRequest,
            "server compiles need an explicit partition (pass --partition AxB)",
        ));
    }
    Ok(CompileOptions {
        procs: None,
        partition: Some(req.parts.iter().map(|&p| p as u32).collect()),
        distance: req.distance.map(|d| d as u64),
        optimize: req.optimize,
        engine: req.engine,
        threads: req.threads,
    })
}

impl Backend for PipelineBackend {
    fn compile(&self, req: &CompileReq) -> Result<CompiledUnit, ServiceError> {
        let opts = options_of(req)?;
        let compiled = compile(&req.source, &opts)
            .map_err(|e| ServiceError::new(ErrorClass::Compile, e.to_string()))?;
        Ok(CompiledUnit {
            plan_json: planio::plan_to_json(&compiled.spmd_plan),
            parallel_source: compiled.parallel_source(),
        })
    }

    fn execute(
        &self,
        entry: &CacheEntry,
        req: &RunReq,
        emit: &mut dyn FnMut(StreamItem) -> bool,
    ) -> Result<Vec<(String, Value)>, ServiceError> {
        let internal = |m: String| ServiceError::new(ErrorClass::Internal, m);
        let plan = planio::plan_from_json(&entry.plan_json, "cache entry")
            .map_err(|e| internal(e.to_string()))?;
        // the cached *generated* source re-parses without any analysis —
        // this is a frontend parse of SPMD output, not the pipeline
        let parallel_file = autocfd_fortran::parse(&entry.parallel_source)
            .map_err(|e| internal(format!("cached parallel source: {e}")))?;

        // The plan artifact carries the submitter's engine and thread
        // choice; RunConfig resolves them, so a remote run executes on
        // exactly the engine the client requested.
        let runs = RunConfig::new(&parallel_file)
            .plan(&plan)
            .overlap(req.overlap)
            .run_parallel_traced();

        // The same order as the launcher's post-run sequence (journals
        // first — they exist even for failed ranks — then output, first
        // error, verification), but not the same code: this one streams
        // to a client through `emit`, reports `ServiceError`s, and has
        // only the cached plan and generated source, never a `Compiled`.
        let dir = self.scratch_dir();
        let mut streamed = true;
        for (rank, run) in runs.iter().enumerate() {
            obs::write_rank_run(&dir, "inproc", rank, runs.len(), run)
                .map_err(|e| internal(format!("rank {rank} journal: {e}")))?;
            let path = autocfd_runtime::journal::rank_path(&dir, rank);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| internal(format!("rank {rank} journal: {e}")))?;
            for line in text.lines() {
                if !emit(StreamItem::Journal {
                    rank,
                    line: line.to_string(),
                }) {
                    streamed = false;
                    break;
                }
            }
            if !streamed {
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        if streamed {
            if let Ok((machine, _)) = &runs[0].outcome {
                for line in &machine.output {
                    if !emit(StreamItem::Output { line: line.clone() }) {
                        break;
                    }
                }
            }
        }

        // surface the first rank failure as the run's error
        for (rank, run) in runs.iter().enumerate() {
            if let Err(e) = &run.outcome {
                return Err(internal(format!("rank {rank}: {e}")));
            }
        }

        let mut extra: Vec<(String, Value)> = vec![
            ("ranks".into(), Value::Int(runs.len() as i128)),
            ("streamed".into(), Value::Bool(streamed)),
        ];
        if req.verify {
            // sequential reference: a plain parse + interpret of the
            // *submitted* source (no pipeline; nothing cached changes)
            let seq_file = autocfd_fortran::parse(&req.compile.source)
                .map_err(|e| internal(format!("sequential reference: {e}")))?;
            let seq = RunConfig::new(&seq_file)
                .run_sequential()
                .map_err(|e| internal(format!("sequential reference: {e}")))?;
            let mut max_diff = 0.0f64;
            for (rank, run) in runs.into_iter().enumerate() {
                let rr = run.into_result().expect("failures returned above");
                let d = verify_rank_owned_region(&seq, &rr, rank, &plan, 0.0)
                    .map_err(|e| ServiceError::new(ErrorClass::Internal, format!("verify: {e}")))?;
                max_diff = max_diff.max(d);
            }
            extra.push(("verified".into(), Value::Bool(true)));
            extra.push(("max_diff".into(), Value::Float(max_diff)));
        }
        Ok(extra)
    }
}
