//! Renders the `results/*.csv` outputs of the repro harness into SVG
//! figures mirroring the paper's plots (`repro plots`).
//!
//! Decoupled from the experiments on purpose: plots can be regenerated
//! any time from whatever CSVs are present, and missing files are simply
//! skipped.

use crate::plot::{BarChart, LineChart, Series};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Parses a CSV written by [`crate::suite::Measured::write_csvs`] into
/// (header, rows).
pub fn read_csv(path: &Path) -> io::Result<(Vec<String>, Vec<Vec<String>>)> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    let header: Vec<String> =
        lines.next().unwrap_or("").split(',').map(|s| s.to_string()).collect();
    let rows = lines
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split(',').map(|s| s.to_string()).collect())
        .collect();
    Ok((header, rows))
}

/// Column accessor over a parsed CSV.
struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn load(path: &Path) -> Option<Table> {
        let (header, rows) = read_csv(path).ok()?;
        Some(Table { header, rows })
    }

    fn col(&self, name: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("column {name} missing from {:?}", self.header))
    }

    fn get<'a>(&'a self, row: &'a [String], name: &str) -> &'a str {
        &row[self.col(name)]
    }

    fn getf(&self, row: &[String], name: &str) -> f64 {
        self.get(row, name).parse().unwrap_or(f64::NAN)
    }
}

/// Inverse of `common::fmt_bytes`: "8B" → 8, "4KB" → 4096, "4MB" → 4 Mi.
pub fn parse_size(s: &str) -> f64 {
    let s = s.trim();
    if let Some(v) = s.strip_suffix("MB") {
        v.parse::<f64>().unwrap_or(f64::NAN) * 1_048_576.0
    } else if let Some(v) = s.strip_suffix("KB") {
        v.parse::<f64>().unwrap_or(f64::NAN) * 1024.0
    } else if let Some(v) = s.strip_suffix('B') {
        v.parse::<f64>().unwrap_or(f64::NAN)
    } else {
        s.parse::<f64>().unwrap_or(f64::NAN)
    }
}

fn write_svg(dir: &Path, name: &str, svg: &str, written: &mut Vec<PathBuf>) -> io::Result<()> {
    let path = dir.join(format!("{name}.svg"));
    std::fs::write(&path, svg)?;
    written.push(path);
    Ok(())
}

/// Renders every figure whose CSV exists under `dir`; returns the SVG
/// paths written.
pub fn render_all(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();

    // Fig. 2 / Fig. 4 — latency curves per density.
    for (file, prefix, naive_col, dh_col) in [
        ("fig2_model.csv", "fig2_model", "model_naive_s", "model_dh_s"),
        ("fig4_rsg_latency.csv", "fig4_latency", "naive_s", "dh_s"),
    ] {
        let Some(t) = Table::load(&dir.join(file)) else { continue };
        // per delta: (naive curve, dh curve) as (msg_size, seconds) points
        type Curves = (Vec<(f64, f64)>, Vec<(f64, f64)>);
        let mut by_delta: BTreeMap<String, Curves> = BTreeMap::new();
        for row in &t.rows {
            let m = parse_size(t.get(row, "msg_size"));
            let e = by_delta.entry(t.get(row, "delta").to_string()).or_default();
            e.0.push((m, t.getf(row, naive_col)));
            e.1.push((m, t.getf(row, dh_col)));
        }
        for (delta, (naive, dh)) in by_delta {
            let chart = LineChart {
                title: format!("{prefix}: latency, delta = {delta}"),
                x_label: "message size (bytes)".into(),
                y_label: "latency (s)".into(),
                log_x: true,
                log_y: true,
                series: vec![
                    Series { name: "naive".into(), points: naive },
                    Series { name: "distance-halving".into(), points: dh },
                ],
            };
            write_svg(dir, &format!("{prefix}_d{delta}"), &chart.render(), &mut out)?;
        }
    }

    // Fig. 5 — speedup curves, one chart per scale per algorithm.
    if let Some(t) = Table::load(&dir.join("fig5_rsg_speedup.csv")) {
        let mut scales: BTreeMap<String, BTreeMap<String, Vec<(f64, f64)>>> = BTreeMap::new();
        let mut scales_cn: BTreeMap<String, BTreeMap<String, Vec<(f64, f64)>>> = BTreeMap::new();
        for row in &t.rows {
            let ranks = t.get(row, "ranks").to_string();
            let delta = t.get(row, "delta").to_string();
            let m = parse_size(t.get(row, "msg_size"));
            scales
                .entry(ranks.clone())
                .or_default()
                .entry(delta.clone())
                .or_default()
                .push((m, t.getf(row, "dh_speedup")));
            scales_cn
                .entry(ranks)
                .or_default()
                .entry(delta)
                .or_default()
                .push((m, t.getf(row, "cn_speedup")));
        }
        for (label, data) in [("dh", scales), ("cn", scales_cn)] {
            for (ranks, by_delta) in data {
                let chart = LineChart {
                    title: format!("fig5: {label} speedup over naive, {ranks} ranks"),
                    x_label: "message size (bytes)".into(),
                    y_label: "speedup (x)".into(),
                    log_x: true,
                    log_y: true,
                    series: by_delta
                        .into_iter()
                        .map(|(delta, points)| Series { name: format!("delta {delta}"), points })
                        .collect(),
                };
                write_svg(dir, &format!("fig5_{label}_{ranks}ranks"), &chart.render(), &mut out)?;
            }
        }
    }

    // Fig. 6 — grouped bars per message size.
    if let Some(t) = Table::load(&dir.join("fig6_moore_speedup.csv")) {
        // per message size: (bar labels, dh speedups, cn speedups)
        type Bars = (Vec<String>, Vec<f64>, Vec<f64>);
        let mut sizes: BTreeMap<String, Bars> = BTreeMap::new();
        for row in &t.rows {
            let e = sizes.entry(t.get(row, "msg_size").to_string()).or_default();
            e.0.push(format!("{} ({})", t.get(row, "moore"), t.get(row, "neighbors")));
            e.1.push(t.getf(row, "dh_speedup"));
            e.2.push(t.getf(row, "cn_speedup"));
        }
        for (size, (cats, dh, cn)) in sizes {
            let chart = BarChart {
                title: format!("fig6: Moore speedups at {size}"),
                y_label: "speedup over naive (x)".into(),
                categories: cats,
                groups: vec![("distance-halving".into(), dh), ("common-neighbor".into(), cn)],
                unit_line: true,
            };
            write_svg(dir, &format!("fig6_moore_{size}"), &chart.render(), &mut out)?;
        }
    }

    // Fig. 7 — SpMM bars per matrix.
    if let Some(t) = Table::load(&dir.join("fig7_spmm_speedup.csv")) {
        let cats: Vec<String> = t.rows.iter().map(|r| t.get(r, "matrix").to_string()).collect();
        let dh: Vec<f64> = t.rows.iter().map(|r| t.getf(r, "dh_speedup")).collect();
        let cn: Vec<f64> = t.rows.iter().map(|r| t.getf(r, "cn_speedup")).collect();
        let chart = BarChart {
            title: "fig7: SpMM collective speedup over naive".into(),
            y_label: "speedup (x)".into(),
            categories: cats,
            groups: vec![("distance-halving".into(), dh), ("common-neighbor".into(), cn)],
            unit_line: true,
        };
        write_svg(dir, "fig7_spmm", &chart.render(), &mut out)?;
    }

    // Fig. 8 — setup overhead lines over density.
    if let Some(t) = Table::load(&dir.join("fig8_setup_overhead.csv")) {
        let dh: Vec<(f64, f64)> =
            t.rows.iter().map(|r| (t.getf(r, "delta"), t.getf(r, "dh_setup_s"))).collect();
        let cn: Vec<(f64, f64)> =
            t.rows.iter().map(|r| (t.getf(r, "delta"), t.getf(r, "cn_setup_s"))).collect();
        let chart = LineChart {
            title: "fig8: pattern-creation overhead".into(),
            x_label: "graph density (delta)".into(),
            y_label: "setup time (s)".into(),
            log_x: false,
            log_y: false,
            series: vec![
                Series { name: "distance-halving".into(), points: dh },
                Series { name: "common-neighbor".into(), points: cn },
            ],
        };
        write_svg(dir, "fig8_overhead", &chart.render(), &mut out)?;
    }

    // Variance study — bars with mean per algorithm.
    if let Some(t) = Table::load(&dir.join("variance_placement.csv")) {
        let cats: Vec<String> = t.rows.iter().map(|r| t.get(r, "algorithm").to_string()).collect();
        let mean: Vec<f64> = t.rows.iter().map(|r| t.getf(r, "mean_s") * 1e3).collect();
        let std: Vec<f64> = t.rows.iter().map(|r| t.getf(r, "std_s") * 1e3).collect();
        let chart = BarChart {
            title: "placement variance: mean and std latency (ms)".into(),
            y_label: "latency (ms)".into(),
            categories: cats,
            groups: vec![("mean".into(), mean), ("std".into(), std)],
            unit_line: false,
        };
        write_svg(dir, "variance_placement", &chart.render(), &mut out)?;
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_parsing_round_trips_fmt_bytes() {
        use crate::common::fmt_bytes;
        for v in [8usize, 32, 2048, 4096, 262_144, 4_194_304] {
            assert_eq!(parse_size(&fmt_bytes(v)), v as f64, "{v}");
        }
        assert!(parse_size("garbage").is_nan());
    }

    #[test]
    fn renders_from_synthesized_csvs() {
        let dir = std::env::temp_dir().join("nhood_figures_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("fig5_rsg_speedup.csv"),
            "ranks,delta,msg_size,dh_speedup,cn_speedup,cn_best_k\n\
             216,0.05,32B,1.5,1.2,8\n216,0.05,2KB,1.1,1.1,8\n\
             216,0.3,32B,8.0,2.0,16\n216,0.3,2KB,2.5,1.3,16\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("fig7_spmm_speedup.csv"),
            "matrix,payload_bytes,edges,naive_s,dh_speedup,cn_speedup,cn_best_k,verified\n\
             dwt_193,424,1350,0.00001,0.76,1.15,2,true\n\
             Journals,984,5968,0.0002,3.86,1.24,16,true\n",
        )
        .unwrap();
        // remove any leftovers from other figures
        for f in [
            "fig2_model.csv",
            "fig4_rsg_latency.csv",
            "fig6_moore_speedup.csv",
            "fig8_setup_overhead.csv",
            "variance_placement.csv",
        ] {
            let _ = std::fs::remove_file(dir.join(f));
        }
        let written = render_all(&dir).unwrap();
        let names: Vec<String> =
            written.iter().map(|p| p.file_name().unwrap().to_string_lossy().into_owned()).collect();
        assert!(names.contains(&"fig5_dh_216ranks.svg".to_string()), "{names:?}");
        assert!(names.contains(&"fig5_cn_216ranks.svg".to_string()));
        assert!(names.contains(&"fig7_spmm.svg".to_string()));
        for p in &written {
            let svg = std::fs::read_to_string(p).unwrap();
            assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"), "{p:?}");
        }
    }

    #[test]
    fn missing_files_are_skipped() {
        let dir = std::env::temp_dir().join("nhood_figures_empty");
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let _ = std::fs::remove_file(entry.unwrap().path());
        }
        assert!(render_all(&dir).unwrap().is_empty());
    }
}
