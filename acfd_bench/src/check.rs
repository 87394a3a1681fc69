//! Launching a compiled program on its transport, and deciding whether
//! a run's results are correct. Every timed operation is counted; a
//! failed, refused or non-bit-exact one counts as failed.

use crate::sizing::Transport;
use autocfd::advisor;
use autocfd::interp::{
    forecast, verify_owned_regions, Frame, Machine, RankResult, RankRun, RunConfig,
};
use autocfd::runtime::{phase_metrics, MergedTrace};
use autocfd::runtime_net::{frame::HEADER_LEN, run_spmd_tcp};
use autocfd::Compiled;
use std::time::Duration;

/// Operations attempted and failed, with the failures logged to stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("acfd_bench: FAILED {what}: {e}");
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Run `cfg`'s plan on every rank over `transport` and return each
/// rank's run. In-process ranks share one engine; TCP ranks each build
/// their own and pay the rendezvous, as `acfd-worker` processes do.
pub fn launch(
    cfg: &RunConfig<'_>,
    ranks: usize,
    transport: Transport,
) -> Result<Vec<RankRun>, String> {
    match transport {
        Transport::Inproc => Ok(cfg.run_parallel_traced()),
        Transport::Tcp => run_spmd_tcp(ranks, Duration::from_secs(60), |comm| {
            cfg.run_rank_traced(&comm)
        })
        .map_err(|e| format!("tcp mesh: {e}")),
    }
}

/// Per-rank results of a launch, or the first rank failure.
pub fn into_results(runs: Vec<RankRun>) -> Result<Vec<RankResult>, String> {
    runs.into_iter()
        .enumerate()
        .map(|(rank, run)| {
            let (machine, frame) = run.outcome.map_err(|e| format!("rank {rank}: {e}"))?;
            Ok(RankResult {
                machine,
                frame,
                comm_stats: run.comm_stats,
                wire_stats: run.wire_stats,
                phases: run.phases,
                trace: run.trace,
            })
        })
        .collect()
}

/// The ranks' traces as one merged trace (in-process ranks share an
/// epoch, so no re-anchoring is needed).
pub fn merged_trace(results: &[RankResult], transport: Transport) -> MergedTrace {
    MergedTrace {
        traces: results.iter().map(|r| r.trace.clone()).collect(),
        phase_names: results.iter().map(|r| r.phases.clone()).collect(),
        transport: transport.label().into(),
        complete: true,
        skipped: 0,
    }
}

/// Messages measured and predicted over all phases of a run.
pub struct Traffic {
    pub msgs_measured: u64,
    pub msgs_predicted: u64,
}

/// A parallel run is correct when every rank's owned region of every
/// status array equals the sequential run of the *original* program bit
/// for bit, rank 0 printed the same output, and every communication
/// phase moved exactly the messages and bytes `interp::forecast`
/// predicts from the plan.
pub fn check_parallel(
    seq: &(Machine, Frame),
    par: &[RankResult],
    compiled: &Compiled,
    transport: Transport,
) -> Result<Traffic, String> {
    let diff = verify_owned_regions(seq, par, &compiled.spmd_plan, 0.0)?;
    if diff != 0.0 {
        return Err(format!("max |seq - par| = {diff:e}"));
    }
    if par[0].machine.output != seq.0.output {
        return Err(format!(
            "rank 0 printed {:?}, sequential printed {:?}",
            par[0].machine.output, seq.0.output
        ));
    }
    let fc = forecast(&compiled.parallel_file, &compiled.spmd_plan).map_err(|e| e.to_string())?;
    let framing = match transport {
        Transport::Inproc => 0,
        Transport::Tcp => HEADER_LEN as u64,
    };
    let metrics = phase_metrics(&merged_trace(par, transport));
    let mut traffic = Traffic {
        msgs_measured: 0,
        msgs_predicted: 0,
    };
    for d in advisor::divergence(&fc, &metrics, framing) {
        if !d.ok(0.0) {
            return Err(format!(
                "phase {}: {} msgs / {} B measured, {} msgs / {} B forecast",
                d.phase, d.msgs_measured, d.bytes_measured, d.msgs_predicted, d.bytes_predicted
            ));
        }
        traffic.msgs_measured += d.msgs_measured;
        traffic.msgs_predicted += d.msgs_predicted;
    }
    Ok(traffic)
}

/// A sequential rep is correct when it prints what the reference run
/// printed and executed the same operations.
pub fn check_sequential(
    reference: &(Machine, Frame),
    got: &(Machine, Frame),
) -> Result<(), String> {
    if got.0.output != reference.0.output {
        return Err(format!(
            "printed {:?}, reference printed {:?}",
            got.0.output, reference.0.output
        ));
    }
    if got.0.ops != reference.0.ops {
        return Err(format!(
            "ops {:?}, reference {:?}",
            got.0.ops, reference.0.ops
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::workload;
    use autocfd::codegen::EnginePref;
    use autocfd::CompileOptions;

    /// One rank's field off by one ulp must be counted as a failure.
    #[test]
    fn a_run_doctored_by_one_ulp_counts_as_failed() {
        let w = workload("sprayer-tcp2-small", 1, true).unwrap();
        let p = &w.programs[0];
        let compiled = autocfd::compile(
            &p.source,
            &CompileOptions {
                partition: Some(p.parts.clone()),
                optimize: true,
                engine: EnginePref::Kernel,
                ..Default::default()
            },
        )
        .unwrap();
        let seq = RunConfig::new(&compiled.ir.file)
            .engine(EnginePref::Kernel)
            .run_sequential()
            .unwrap();
        let run = || {
            let cfg = compiled.run_config();
            into_results(launch(&cfg, 2, Transport::Inproc).unwrap()).unwrap()
        };

        let mut tally = Tally::default();
        let honest = run();
        let traffic = check_parallel(&seq, &honest, &compiled, Transport::Inproc);
        assert!(
            matches!(&traffic, Ok(t) if t.msgs_measured == t.msgs_predicted && t.msgs_measured > 0)
        );
        tally.record("honest run", traffic.map(|_| ()));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        // perturb one owned interior point of rank 1's `psi` by 1 ulp
        let mut doctored = run();
        let id = doctored[1].frame.arrays["psi"];
        let arr = doctored[1].machine.array_mut(id);
        let (ni, nj) = (p.extents[0] as i64, p.extents[1] as i64);
        let at = arr.offset(&[ni - 2, nj / 2]).unwrap();
        arr.data[at] = f64::from_bits(arr.data[at].to_bits() + 1);
        let verdict = check_parallel(&seq, &doctored, &compiled, Transport::Inproc);
        assert!(verdict.is_err());
        tally.record("doctored run", verdict.map(|_| ()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.fail_ratio(), 0.5);
    }
}
