//! `compare A B`: the noise-aware baseline check. A result set is a
//! file of run records, one JSON object per line (each run leaves its
//! record in `out/<workload>-t0.json`; a set is those, concatenated).
//! Per (workload, end-to-end metric) the verdict follows the rule the
//! bounds were fixed for:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — a set's inter-quartile range is wider than the
//!   bound, so the medians cannot settle it — unless every run of one
//!   set reads better than every run of the other, which settles it:
//!   `ok` when B wins them all, `regressed` when A does and B's median
//!   is beyond the bound;
//! * `ok` — otherwise.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::schema::{EndToEnd, END_TO_END};
use crate::stats::{quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// workload → metric → values, from the untraced records of a set.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let header = rec.get("header").ok_or(format!("line {}: no header", i + 1))?;
        if header.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = header
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = rec.get("metrics").map(Value::entries).unwrap_or_default();
        let slot = set.entry(workload.to_string()).or_default();
        for (name, v) in metrics {
            if let Some(x) = v.as_f64() {
                slot.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(set)
}

/// Verdict for one metric from the two sets' values, plus the share by
/// which B's median is worse than A's (negative: better).
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Option<(Verdict, f64)> {
    let ((_, am, _), (_, bm, _)) = (quartiles(a)?, quartiles(b)?);
    let lower_is_better = m.better == "lower";
    let delta = if lower_is_better { bm - am } else { am - bm };
    // A zero median (no metric should have one) makes any worsening infinite.
    let worse_by = if delta == 0.0 { 0.0 } else { delta / am.abs() };
    let wide = spread(a)? > m.bound || spread(b)? > m.bound;
    let fold = |v: &[f64], f: fn(f64, f64) -> f64, init| v.iter().copied().fold(init, f);
    let lo_hi = |v| (fold(v, f64::min, f64::MAX), fold(v, f64::max, f64::MIN));
    let ((a_lo, a_hi), (b_lo, b_hi)) = (lo_hi(a), lo_hi(b));
    let (b_wins_every_run, a_wins_every_run) =
        if lower_is_better { (b_hi < a_lo, a_hi < b_lo) } else { (b_lo > a_hi, a_lo > b_hi) };
    let beyond = worse_by > m.bound;
    let verdict = match (wide, b_wins_every_run, a_wins_every_run) {
        (true, true, _) => Verdict::Ok,
        (true, _, true) if beyond => Verdict::Regressed,
        (true, _, _) => Verdict::Unresolved,
        (false, _, _) if beyond => Verdict::Regressed,
        (false, _, _) => Verdict::Ok,
    };
    Some((verdict, worse_by))
}

/// Prints one row per (workload, metric); `Ok(true)` when nothing regressed.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let (a, b) = (parse_set(a_text)?, parse_set(b_text)?);
    let mut clean = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>7} {:>7} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "worse by", "bound"
    );
    for (workload, metrics_a) in &a {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) =
                (metrics_a.get(m.name), b.get(workload).and_then(|w| w.get(m.name)))
            else {
                println!("{workload:<14} {:<20} missing from one set", m.name);
                continue;
            };
            let Some((verdict, worse_by)) = judge(m, va, vb) else {
                println!("{workload:<14} {:<20} needs at least two runs per set", m.name);
                continue;
            };
            clean &= verdict != Verdict::Regressed;
            let (ma, mb) = (quartiles(va).map(|q| q.1), quartiles(vb).map(|q| q.1));
            println!(
                "{workload:<14} {:<20} {:>14.4} {:>14.4} {:>6.2}% {:>6.2}% {:>+8.2}% {:>6.1}%  {}",
                m.name,
                ma.unwrap_or(f64::NAN),
                mb.unwrap_or(f64::NAN),
                spread(va).unwrap_or(f64::NAN) * 100.0,
                spread(vb).unwrap_or(f64::NAN) * 100.0,
                worse_by * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: EndToEnd = EndToEnd { name: "lat_us", unit: "us", better: "lower", bound: 0.07 };
    const OPS: EndToEnd =
        EndToEnd { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.07 };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: ok.
        assert_eq!(judge(&LAT, &a, &a).map(|v| v.0), Some(Verdict::Ok));
        // 10% slower with tight spread: regressed; 10% faster: ok.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.10).collect();
        let fast: Vec<f64> = a.iter().map(|x| x * 0.90).collect();
        assert_eq!(judge(&LAT, &a, &slow).map(|v| v.0), Some(Verdict::Regressed));
        assert_eq!(judge(&LAT, &a, &fast).map(|v| v.0), Some(Verdict::Ok));
        // For a higher-is-better metric the directions swap.
        assert_eq!(judge(&OPS, &a, &slow).map(|v| v.0), Some(Verdict::Ok));
        assert_eq!(judge(&OPS, &a, &fast).map(|v| v.0), Some(Verdict::Regressed));
        // Spread wider than the bound: unresolved, whatever the medians say ...
        let noisy = [80.0, 100.0, 120.0, 90.0, 111.0];
        assert_eq!(judge(&LAT, &a, &noisy).map(|v| v.0), Some(Verdict::Unresolved));
        // ... unless every run of B beats every run of A.
        let noisy_but_faster = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(judge(&LAT, &a, &noisy_but_faster).map(|v| v.0), Some(Verdict::Ok));
        // ... or every run of A beats every run of B, beyond the bound:
        // a uniform 3x slow-down is a regression however wide its spread.
        let noisy_and_slower = [240.0, 300.0, 360.0, 270.0, 333.0];
        assert_eq!(judge(&LAT, &a, &noisy_and_slower).map(|v| v.0), Some(Verdict::Regressed));
        let fewer_ops: Vec<f64> = noisy_and_slower.iter().map(|x| 1e4 / x).collect();
        let ops: Vec<f64> = a.iter().map(|x| 1e4 / x).collect();
        assert_eq!(judge(&OPS, &ops, &fewer_ops).map(|v| v.0), Some(Verdict::Regressed));
        // A zero median in A: any worsening is beyond every bound, none is ok.
        let zeros = [0.0, 0.0, 0.0];
        assert_eq!(judge(&LAT, &zeros, &[1.0, 1.0, 1.0]).map(|v| v.0), Some(Verdict::Regressed));
        assert_eq!(judge(&LAT, &zeros, &zeros), Some((Verdict::Ok, 0.0)));
        assert_eq!(judge(&LAT, &a, &[1.0]), None);
    }

    #[test]
    fn sets_parse_and_skip_traced_records() {
        let line = |trace: bool, v: f64| {
            format!(
                "{{\"header\": {{\"workload\": \"w\", \"trace\": {trace}}}, \
                 \"metrics\": {{\"lat_us\": {v}}}}}\n"
            )
        };
        let set = parse_set(&(line(false, 1.5) + &line(true, 9.0) + "\n" + &line(false, 2.5)))
            .expect("parses");
        assert_eq!(set["w"]["lat_us"], vec![1.5, 2.5]);
        assert!(parse_set("{not json}").is_err());
    }
}
