//! Exporters: Chrome trace JSON, plain-text summary table, and the
//! model-vs-measured report.

use crate::span::{EventKind, SpanEvent};
use crate::{CountingRecorder, Counts};
use std::fmt::Write as _;

/// Renders span events as a Chrome `chrome://tracing` / Perfetto JSON
/// array. One track per rank (`tid` = rank, `pid` = 0), with a
/// `thread_name` metadata record per rank so tracks display as
/// `rank N`. Timestamps are microseconds, as the format requires.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut ranks: Vec<usize> = events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();

    let mut out = String::from("[\n");
    for r in &ranks {
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{r},\
             \"args\":{{\"name\":\"rank {r}\"}}}},"
        );
    }
    for (i, e) in events.iter().enumerate() {
        let sep = if i + 1 == events.len() { "\n" } else { ",\n" };
        match e.kind {
            EventKind::Begin => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"B\",\"pid\":0,\"tid\":{},\"ts\":{:.3}}}{sep}",
                    e.label, e.rank, e.us
                );
            }
            EventKind::End => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"E\",\"pid\":0,\"tid\":{},\"ts\":{:.3}}}{sep}",
                    e.label, e.rank, e.us
                );
            }
            EventKind::Complete { dur_us } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\
                     \"dur\":{:.3}}}{sep}",
                    e.label, e.rank, e.us, dur_us
                );
            }
            EventKind::Instant => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\
                     \"s\":\"t\"}}{sep}",
                    e.label, e.rank, e.us
                );
            }
        }
    }
    // An empty event list still yields valid JSON.
    if events.is_empty() && ranks.is_empty() {
        return String::from("[]\n");
    }
    out.push_str("]\n");
    out
}

/// Renders a [`CountingRecorder`] as an aligned plain-text table: one row
/// per rank plus a totals row.
pub fn summary_table(rec: &CountingRecorder) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>12} {:>10} {:>12} {:>8} {:>8} {:>9} {:>7}",
        "rank",
        "msgs_out",
        "bytes_out",
        "msgs_in",
        "bytes_in",
        "copies",
        "retries",
        "neg_rnds",
        "fallbk"
    );
    let mut row = |name: &str, c: &Counts| {
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>12} {:>10} {:>12} {:>8} {:>8} {:>9} {:>7}",
            name,
            c.msgs_sent,
            c.bytes_sent,
            c.msgs_recvd,
            c.bytes_recvd,
            c.copies,
            c.retries,
            c.negotiation_rounds,
            c.fallbacks
        );
    };
    for r in 0..rec.n() {
        row(&r.to_string(), &rec.per_rank(r));
    }
    let t = rec.totals();
    row("total", &t);
    if rec.classifies_sockets() {
        let _ = writeln!(
            out,
            "locality: {} off-socket msgs ({} B), {} intra-socket msgs ({} B)",
            t.msgs_off_socket, t.bytes_off_socket, t.msgs_intra_socket, t.bytes_intra_socket
        );
    }
    if t.plan_cache_hits + t.plan_cache_misses > 0 {
        let _ =
            writeln!(out, "plan cache: {} hits, {} misses", t.plan_cache_hits, t.plan_cache_misses);
    }
    if t.repairs > 0 {
        let _ = writeln!(out, "plan repairs: {}", t.repairs);
    }
    out
}

/// The §V model's per-rank predictions, as plain numbers so this crate
/// needs no dependency on `nhood-core` (callers compute them from
/// `nhood_core::model::ModelParams`).
#[derive(Clone, Copy, Debug)]
pub struct ModelPrediction {
    /// E\[n_off\]: expected off-socket messages sent per rank.
    pub off_socket_msgs: f64,
    /// E\[n_in\]: expected intra-socket messages received per rank.
    pub intra_socket_msgs: f64,
    /// E\[n_in\]·E\[m_in\]: expected intra-socket bytes per rank.
    pub intra_socket_bytes: f64,
}

fn rel_err(measured: f64, predicted: f64) -> String {
    if predicted == 0.0 {
        return if measured == 0.0 { "0.0%".into() } else { "n/a".into() };
    }
    format!("{:+.1}%", (measured - predicted) / predicted * 100.0)
}

/// Joins measured per-rank means from a locality-classifying
/// [`CountingRecorder`] against the model's predictions and reports the
/// relative error of each quantity.
///
/// Intra-socket traffic is symmetric within a socket, so the measured
/// send-side mean equals the receive-side mean the model predicts.
pub fn model_check_report(rec: &CountingRecorder, pred: &ModelPrediction) -> String {
    let n = rec.n().max(1) as f64;
    let t = rec.totals();
    let meas_off = t.msgs_off_socket as f64 / n;
    let meas_in = t.msgs_intra_socket as f64 / n;
    let meas_in_bytes = t.bytes_intra_socket as f64 / n;

    let mut out = String::new();
    let _ = writeln!(out, "model check (per-rank means over {} ranks)", rec.n());
    let _ = writeln!(out, "{:<28} {:>12} {:>12} {:>9}", "quantity", "predicted", "measured", "err");
    let mut row = |name: &str, p: f64, m: f64| {
        let _ = writeln!(out, "{name:<28} {p:>12.3} {m:>12.3} {:>9}", rel_err(m, p));
    };
    row("off-socket msgs  E[n_off]", pred.off_socket_msgs, meas_off);
    row("intra-socket msgs  E[n_in]", pred.intra_socket_msgs, meas_in);
    row("intra-socket bytes", pred.intra_socket_bytes, meas_in_bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{labels, Recorder, Traffic};

    #[test]
    fn chrome_json_structure() {
        let events = vec![
            SpanEvent { rank: 1, label: labels::HALVING_STEP, kind: EventKind::Begin, us: 0.0 },
            SpanEvent { rank: 1, label: labels::HALVING_STEP, kind: EventKind::End, us: 2.5 },
            SpanEvent {
                rank: 0,
                label: labels::INTRA_SOCKET,
                kind: EventKind::Complete { dur_us: 1.0 },
                us: 3.0,
            },
            SpanEvent { rank: 0, label: labels::RETRY, kind: EventKind::Instant, us: 4.0 },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2); // ranks 0 and 1
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert!(json.contains("\"dur\":1.000"));
        // crude balance check that the output is a well-formed array of objects
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(chrome_trace_json(&[]), "[]\n");
    }

    #[test]
    fn summary_table_has_rank_and_total_rows() {
        let rec = CountingRecorder::new(2);
        rec.traffic(0, &Traffic { msgs_sent: 1, bytes_sent: 128, ..Traffic::default() });
        rec.traffic(1, &Traffic { msgs_recvd: 1, bytes_recvd: 128, ..Traffic::default() });
        let table = summary_table(&rec);
        assert!(table.contains("rank"));
        assert!(table.lines().count() >= 4, "{table}");
        assert!(table.contains("total"));
        assert!(table.contains("128"));
        // no plan-cache traffic → no plan-cache line
        assert!(!table.contains("plan cache"));
        rec.plan_cache(0, true);
        rec.plan_cache(1, false);
        let table = summary_table(&rec);
        assert!(table.contains("plan cache: 1 hits, 1 misses"), "{table}");
    }

    #[test]
    fn model_check_reports_relative_error() {
        let rec = CountingRecorder::with_sockets(vec![0, 0, 1, 1]);
        // each rank sends 1 off-socket msg of 8 bytes and 1 intra of 8
        let tally = rec.tally().expect("a counting recorder tallies");
        for r in 0..4 {
            let mut t = Traffic::default();
            t.send(tally, r, (r + 2) % 4, 8);
            t.send(tally, r, r ^ 1, 8);
            rec.traffic(r, &t);
        }
        let pred = ModelPrediction {
            off_socket_msgs: 1.0,
            intra_socket_msgs: 2.0,
            intra_socket_bytes: 8.0,
        };
        let report = model_check_report(&rec, &pred);
        assert!(report.contains("E[n_off]"));
        assert!(report.contains("+0.0%") || report.contains("-0.0%"), "{report}");
        assert!(report.contains("-50.0%"), "{report}"); // measured 1 vs predicted 2
    }

    #[test]
    fn rel_err_handles_zero_prediction() {
        assert_eq!(rel_err(0.0, 0.0), "0.0%");
        assert_eq!(rel_err(1.0, 0.0), "n/a");
    }
}
