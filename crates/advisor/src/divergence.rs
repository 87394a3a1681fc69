//! Forecast-vs-measured divergence.
//!
//! [`autocfd_interp::forecast()`] predicts each communication phase's
//! per-visit message and payload counts statically from the SPMD plan.
//! This module compares that prediction against a measured trace's
//! per-phase rows ([`PhaseRow`]) and reports, phase by phase, where the cost model
//! stopped predicting reality. The inference mirrors the `acfc stats
//! --check` gate: visit counts are recovered from the measured message
//! count (`msgs / events-per-visit`), and on TCP each frame carries a
//! fixed wire header on top of the payload.

use autocfd_cluster_sim::relative_error;
use autocfd_interp::forecast::PhaseForecast;
use autocfd_runtime::export::PhaseRow;

/// One phase's predicted-vs-measured traffic comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDivergence {
    /// Phase name.
    pub phase: String,
    /// Whether the forecast predicted this phase at all. Phases the
    /// trace measured but the forecast never mentioned are reported
    /// with `forecast == false` and a zero prediction.
    pub forecast: bool,
    /// Visits inferred from the measured message count.
    pub visits: u64,
    /// Whether the measured message count is an exact multiple of the
    /// per-visit event count (the phase's comm structure matches).
    pub structure_ok: bool,
    /// Predicted messages (`visits × per-visit events`).
    pub msgs_predicted: u64,
    /// Measured messages.
    pub msgs_measured: u64,
    /// Predicted wire bytes, framing included.
    pub bytes_predicted: u64,
    /// Measured wire bytes.
    pub bytes_measured: u64,
}

impl PhaseDivergence {
    /// Relative error of the wire-byte prediction.
    pub fn error(&self) -> f64 {
        relative_error(self.bytes_predicted as f64, self.bytes_measured as f64)
    }

    /// Whether the phase diverges no more than `tolerance` relative
    /// error and its structure matched.
    pub fn ok(&self, tolerance: f64) -> bool {
        self.structure_ok && self.error() <= tolerance
    }
}

/// Compare a traffic forecast against measured phase metrics.
///
/// `frame_header_bytes` is the per-frame wire overhead the transport
/// adds on top of the payload — `0` for the in-process backend,
/// `autocfd_runtime_net::frame::HEADER_LEN` for TCP (the caller knows
/// the transport; this crate deliberately does not).
pub fn divergence(
    forecasts: &[PhaseForecast],
    metrics: &[PhaseRow],
    frame_header_bytes: u64,
) -> Vec<PhaseDivergence> {
    let mut out = Vec::new();
    for f in forecasts {
        let (msgs, bytes) = metrics
            .iter()
            .find(|m| m.phase == f.phase)
            .map(|m| m.total())
            .map_or((0, 0), |t| (t.msgs, t.bytes));
        let per_visit = f.events();
        let (visits, structure_ok) = match msgs.checked_div(per_visit) {
            None => (0, msgs == 0),
            Some(v) => (v, msgs % per_visit == 0),
        };
        out.push(PhaseDivergence {
            phase: f.phase.clone(),
            forecast: true,
            visits,
            structure_ok,
            msgs_predicted: visits * per_visit,
            msgs_measured: msgs,
            bytes_predicted: visits * (f.payload() + frame_header_bytes * f.frames()),
            bytes_measured: bytes,
        });
    }
    for (m, t) in metrics.iter().map(|m| (m, m.total())) {
        if t.msgs > 0 && !forecasts.iter().any(|f| f.phase == m.phase) {
            out.push(PhaseDivergence {
                phase: m.phase.clone(),
                forecast: false,
                visits: 0,
                structure_ok: false,
                msgs_predicted: 0,
                msgs_measured: t.msgs,
                bytes_predicted: 0,
                bytes_measured: t.bytes,
            });
        }
    }
    out
}

/// Render the divergence table, one row per communication phase, with
/// a verdict column at the given tolerance.
pub fn render_divergence(divs: &[PhaseDivergence], tolerance: f64) -> String {
    let name_w = divs
        .iter()
        .map(|d| d.phase.len())
        .chain(["phase".len()])
        .max()
        .unwrap_or(5);
    let mut out = format!(
        "forecast divergence (tolerance {:.1}%)\n{:name_w$}  {:>6}  {:>15}  {:>21}  {:>7}  {:>8}\n",
        tolerance * 100.0,
        "phase",
        "visits",
        "msgs pred/meas",
        "bytes pred/meas",
        "err",
        "verdict",
    );
    for d in divs {
        out.push_str(&format!(
            "{:name_w$}  {:>6}  {:>15}  {:>21}  {:>6.1}%  {:>8}\n",
            d.phase,
            d.visits,
            format!("{}/{}", d.msgs_predicted, d.msgs_measured),
            format!("{}/{}", d.bytes_predicted, d.bytes_measured),
            (d.error() * 100.0).min(999.9),
            if d.ok(tolerance) { "ok" } else { "DIVERGED" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocfd_interp::forecast::RankTraffic;
    use autocfd_runtime::export::Cell;

    fn metric(phase: &str, msgs: u64, bytes: u64) -> PhaseRow {
        PhaseRow {
            phase: phase.into(),
            cells: vec![Cell {
                msgs,
                bytes,
                events: msgs as usize,
                ..Cell::default()
            }],
            work_spans: Vec::new(),
            wait_spans: Vec::new(),
        }
    }

    fn fc(phase: &str, frames_out: u64, payload_out: u64) -> PhaseForecast {
        PhaseForecast {
            phase: phase.into(),
            per_rank: vec![
                RankTraffic {
                    events: 2,
                    frames_out,
                    frames_in: frames_out,
                    payload_out,
                    payload_in: payload_out,
                },
                RankTraffic {
                    events: 2,
                    frames_out,
                    frames_in: frames_out,
                    payload_out,
                    payload_in: payload_out,
                },
            ],
        }
    }

    #[test]
    fn exact_trace_has_zero_error() {
        let f = fc("sync_0", 1, 80);
        // 4 events/visit, both-sides payload 320/visit; 8 visits.
        let m = metric("sync_0", 32, 2560);
        let d = divergence(&[f], &[m], 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].visits, 8);
        assert!(d[0].structure_ok);
        assert!(d[0].ok(0.0), "error {}", d[0].error());
    }

    #[test]
    fn doctored_bytes_diverge() {
        let f = fc("sync_0", 1, 80);
        let m = metric("sync_0", 32, 5120); // bytes doubled
        let d = divergence(&[f], &[m], 0);
        assert!(!d[0].ok(0.05));
        assert!(d[0].error() > 0.9, "error {}", d[0].error());
    }

    #[test]
    fn tcp_framing_is_priced_in() {
        let f = fc("sync_0", 1, 80);
        // 4 frames/visit, 9-byte header each: 320 + 36 per visit.
        let m = metric("sync_0", 4, 356);
        let d = divergence(&[f], &[m], 9);
        assert!(d[0].ok(0.0), "error {}", d[0].error());
    }

    #[test]
    fn unforecast_phase_is_flagged() {
        let m = metric("mystery", 4, 100);
        let d = divergence(&[], &[m], 0);
        assert_eq!(d.len(), 1);
        assert!(!d[0].forecast);
        assert!(!d[0].ok(1.0));
    }
}
