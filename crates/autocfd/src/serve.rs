//! The compile cache's pipeline backend: plugs the real Auto-CFD
//! pipeline into [`autocfd_compile_service::Service`].
//!
//! A cold `Compile` runs the full pipeline (parse → IR → partition →
//! dependence analysis → sync optimization → restructure) — this is the
//! only path through [`PipelineBackend::compile`], so the service's
//! pipeline-invocation counter counts exactly these. A warm `Compile`
//! is served straight from the cache, with no frontend. The plan goes
//! through [`crate::planio`] like every other plan artifact.

use crate::planio;
use crate::{compile, CompileOptions};
use autocfd_compile_service::proto::{CompileReq, ErrorClass, ServiceError};
use autocfd_compile_service::Backend;

/// The production [`Backend`]: compiles through [`crate::compile`].
#[derive(Debug, Default)]
pub struct PipelineBackend;

impl PipelineBackend {
    /// A fresh backend.
    pub fn new() -> PipelineBackend {
        PipelineBackend
    }
}

fn options_of(req: &CompileReq) -> Result<CompileOptions, ServiceError> {
    if req.parts.is_empty() {
        return Err(ServiceError::new(
            ErrorClass::BadRequest,
            "compile requests need an explicit partition",
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
    fn compile(&self, req: &CompileReq) -> Result<String, ServiceError> {
        let opts = options_of(req)?;
        let compiled = compile(&req.source, &opts)
            .map_err(|e| ServiceError::new(ErrorClass::Compile, e.to_string()))?;
        Ok(planio::plan_to_json(&compiled.spmd_plan))
    }
}
