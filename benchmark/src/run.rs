//! One benchmark run: generate the workload from the seed, set up,
//! check outputs, measure the window, and (with `--trace 1`) trace and
//! replay the layers.

use std::path::{Path, PathBuf};
use std::time::Duration;

use nhood_service::{Backend, Service, ServiceConfig};

use crate::calib::{self, Refs};
use crate::harness::{
    check, run_block, sent, service_config, set_up, steady, window, Checked, Inputs, Kind, Sample,
    SetUp, Window,
};
use crate::json::{obj, Value};
use crate::layers::{self, Metrics};
use crate::model::{expectations, Expect};
use crate::schema::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{low, mean, median_f64, median_u64, percentile};
use crate::trace::Tracer;
use crate::workloads::{build, Step, Workload, WORKLOADS};
use crate::{alloc, host};

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of a run: the contract's final line plus the full record.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the contract asks for in this mode, in schema order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Header, flags and every number the run produced (one JSON object).
    pub record: Value,
}

impl RunOutput {
    /// The last line of standard output.
    pub fn contract_line(&self) -> String {
        let metrics = obj(self.metrics.iter().map(|&(name, value, unit)| {
            (name, obj([("value", Value::from(value)), ("unit", Value::from(unit))]))
        }));
        obj([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", metrics),
        ])
        .to_string()
    }
}

/// Where run records, traces and the plan-cache disk tier go: the
/// benchmark's own `out/` directory.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Runs the block script once on a service that keeps its outputs.
/// Every request's receive buffers are compared with the references,
/// and the messages and bytes the service's transport counters moved by
/// are compared with what the model pass's plan sends for that request
/// — so the plan the run costs (`model_makespan_us`) is the plan the
/// service serves. `delivered` counts the bytes in the buffers the
/// service handed back.
fn check_outputs(w: &Workload, expect: &[Expect]) -> Checked {
    let cfg = ServiceConfig { keep_outputs: true, ..service_config(w) };
    let tr = &mut Tracer::off();
    let moves_bytes = w.backend != Backend::Sim;
    if w.lifetime {
        // A fresh service's counters start at zero.
        let ran = run_block(cfg, None, Inputs::of(w, Kind::Throughput), tr);
        let mut c = check(&ran, expect, w.backend, true);
        let want = expect.iter().fold((0, 0), |s, e| (s.0 + e.sent.0, s.1 + e.sent.1));
        c.failed += u64::from(moves_bytes && ran.sent != want);
        return c;
    }
    // One request per block, so only one request's outputs are alive.
    let SetUp { mut svc, failed, .. } = set_up(w, cfg, tr);
    let mut total = Checked { failed, ..Checked::default() };
    let mut before = sent(&svc.report());
    for (step, want) in w.script.iter().zip(expect) {
        let inputs = Inputs { tenants: Vec::new(), steps: vec![step.clone()], one_at_a_time: true };
        let ran = run_block(cfg, Some(&mut svc), inputs, tr);
        let c = check(&ran, std::slice::from_ref(want), w.backend, true);
        let moved = (ran.sent.0 - before.0, ran.sent.1 - before.1);
        before = ran.sent;
        total.attempted += c.attempted;
        total.failed += c.failed + u64::from(moves_bytes && moved != want.sent);
        total.delivered += c.delivered;
        if let (false, Step::Request { tenant, req }) = (moves_bytes, step) {
            // Simulated: no buffer exists. Count what the schedule stands
            // for, on the graph the service holds for the tenant.
            let g = svc.tenant_graph(*tenant);
            let from = |r| g.in_neighbors(r).iter().map(|&s| req.payloads[s].len() as u64);
            total.delivered += (0..g.n()).flat_map(from).sum::<u64>();
        }
    }
    total
}

/// The warm service of a workload that has one.
fn warm<'a>(w: &Workload, svc: &'a mut Service) -> Option<&'a mut Service> {
    (!w.lifetime).then_some(svc)
}

/// Raw and nominal-host times of samples, ns.
fn times(samples: &[Sample]) -> (Vec<u64>, Vec<u64>) {
    (samples.iter().map(|s| s.ns).collect(), samples.iter().map(Sample::nominal_ns).collect())
}

/// Times (us) at p0, p1, p5, p25, p50, p75, p99.
fn percentiles_us(ns: &[u64]) -> Value {
    let at = |p| Value::from(percentile(ns, p) as f64 / 1e3);
    Value::Arr([0.0, 1.0, 5.0, 25.0, 50.0, 75.0, 99.0].map(at).to_vec())
}

/// Diagnostics of a window: they measure the host, not the program.
fn host_metrics(win: &Window) -> Metrics {
    let (thr, _) = times(steady(&win.thr));
    let (lat, _) = times(steady(&win.lat));
    let thr_total_ns: u64 = thr.iter().sum();
    let per_op = |ns: u64| ns as f64 / 1e3 / win.lat_ops as f64;
    let mut m = Metrics::new();
    m.insert("host.noise_ratio", median_u64(&thr) as f64 / percentile(&thr, 5.0) as f64);
    m.insert("host.raw_ops_per_s", win.thr_ops as f64 / (low(&thr) as f64 / 1e9));
    m.insert("host.raw_lat_us", per_op(low(&lat)));
    m.insert(
        "host.mean_ops_per_s",
        (thr.len() as u64 * win.thr_ops) as f64 / (thr_total_ns as f64 / 1e9),
    );
    m.insert("host.lat_p50_us", per_op(median_u64(&lat)));
    m.insert("host.lat_p99_us", per_op(percentile(&lat, 99.0)));
    // The calibration kernels' median readings against their nominal ones.
    let around = win.thr.iter().chain(&win.lat).chain(&win.setups).map(|s| s.host);
    let (compute, stream): (Vec<f64>, Vec<f64>) =
        around.map(|h| (h.compute_ns, h.stream_ns_per_byte)).unzip();
    m.insert("host.compute_slowdown", median_f64(&compute) / calib::COMPUTE_NOMINAL_NS);
    m.insert("host.stream_slowdown", median_f64(&stream) / calib::STREAM_NOMINAL_NS_PER_BYTE);
    m.insert("host.minor_faults_per_op", win.minor_faults as f64 / win.checked.attempted as f64);
    m.insert("host.cpu_frac", win.cpu.as_secs_f64() / win.wall.as_secs_f64());
    m
}

/// `service.*` metrics from the spans of the traced window.
fn service_metrics(tr: &Tracer, win: &Window) -> Metrics {
    let us = |ns: u64| ns as f64 / 1e3;
    let spans = tr.spans();
    // Per `parent` span with `child` spans: (time inside them, how many).
    let inside = |parent: &str, child: &str| -> Vec<(u64, u64)> {
        let of = |(id, s): (usize, &crate::trace::Span)| {
            spans[id..]
                .iter()
                .take_while(|c| c.start_ns <= s.end_ns)
                .filter(|c| c.name == child && c.parent == Some(id as u32))
                .fold((0, 0), |(sum, n), c| (sum + c.dur_ns(), n + 1))
        };
        let parents = spans.iter().enumerate().filter(|(_, s)| s.name == parent);
        parents.map(of).filter(|&(_, n)| n > 0).collect()
    };
    let blocks = win.thr_blocks as f64;
    let mut m = Metrics::new();
    m.insert("service.submit_us", us(low(&tr.durations("service.submit"))));
    // Per op: a throughput block's drains serve all its requests.
    let drains: Vec<u64> = inside("block.throughput", "service.drain")
        .iter()
        .map(|&(ns, _)| ns / win.thr_ops)
        .collect();
    m.insert("service.drain_us", us(low(&drains)));
    // Per tenant: the mean registration of a set-up.
    let registrations: Vec<u64> =
        inside("setup", "service.add_tenant").iter().map(|&(ns, n)| ns / n).collect();
    m.insert("service.register_us", us(low(&registrations)));
    m.insert("service.batches_per_block", win.thr_batches as f64 / blocks);
    m.insert("service.coalesced_frac", win.thr_coalesced as f64 / (blocks * win.thr_ops as f64));
    m
}

/// Block pairs a run of `seconds` measures: the workload's fixed count
/// for a run of `RUN_SECONDS`, scaled; half of it when tracing (the
/// other half of the time replays the layers).
fn pairs_for(w: &Workload, opts: &RunOpts) -> usize {
    let listed = WORKLOADS.iter().find(|l| l.0 == w.name).expect("built workloads are listed");
    let share = if opts.trace { 0.5 } else { 1.0 };
    let pairs = listed.2 as f64 * opts.seconds / RUN_SECONDS as f64 * share;
    (pairs.round() as usize).max(4)
}

pub fn run(opts: &RunOpts) -> Result<RunOutput, String> {
    let pinned = alloc::pin_malloc();
    let w = build(&opts.workload, opts.seed)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let expect = expectations(&w).map_err(|e| format!("model pass: {e}"))?;
    let cfg = service_config(&w);
    let mut tr = if opts.trace { Tracer::on() } else { Tracer::off() };
    let mut refs = Refs::new();

    // A throw-away set-up pages the binary in and sizes the allocator's
    // arenas; the next one builds the warm service the windows run on.
    let thrown = set_up(&w, cfg, &mut Tracer::off()).failed;
    let SetUp { mut svc, failed, .. } = set_up(&w, cfg, &mut tr);
    let registered = 2 * w.tenants.len() as u64;
    let mut tally =
        Checked { attempted: registered, failed: thrown + failed, ..Checked::default() };
    let outputs = check_outputs(&w, &expect);

    let pairs = pairs_for(&w, opts);
    let win = window(&w, warm(&w, &mut svc), &expect, pairs, &mut refs, &mut tr);
    tally.attempted += outputs.attempted + win.checked.attempted;
    tally.failed += outputs.failed + win.checked.failed;
    let host = host_metrics(&win);
    let noisy = host["host.minor_faults_per_op"] > 1.0 || host["host.noise_ratio"] > 1.5;

    // Every timing metric: the low percentile of the nominal-host times.
    let (thr_raw, thr) = times(steady(&win.thr));
    let (lat_raw, lat) = times(steady(&win.lat));
    let (setups_raw, setups) = times(&win.setups);
    let (allocs, alloc_bytes): (Vec<u64>, Vec<u64>) =
        steady(&win.thr).iter().map(|s| (s.allocs, s.alloc_bytes)).unzip();
    let thr_low = low(&thr) as f64;
    let mut values = Metrics::new();
    values.insert("ops_per_s", win.thr_ops as f64 / (thr_low / 1e9));
    values.insert("lat_us", low(&lat) as f64 / 1e3 / win.lat_ops as f64);
    values.insert("model_makespan_us", mean(expect.iter().map(|e| e.makespan_s * 1e6)));
    values.insert("setup_s", median_u64(&setups) as f64 / 1e9);
    values.insert("allocs_per_op", median_u64(&allocs) as f64 / win.thr_ops as f64);
    values.insert("alloc_kb_per_op", median_u64(&alloc_bytes) as f64 / 1024.0 / win.thr_ops as f64);
    values.insert(
        "delivered_kb_per_op",
        outputs.delivered as f64 / 1024.0 / outputs.attempted as f64,
    );

    let mut trace_file = None;
    if opts.trace {
        values.extend(service_metrics(&tr, &win));
        // Traced and untraced pairs alternate: the median ratio of
        // neighbours cancels whatever phase the host was in.
        let neighbours = steady(&win.traced_thr).iter().zip(steady(&win.thr));
        let ratios: Vec<f64> = neighbours.map(|(t, u)| t.ns as f64 / u.ns as f64).collect();
        values.insert("trace.overhead_frac", median_f64(&ratios) - 1.0);
        // 1 when the service never consulted the cache (every tenant
        // served from its Distance Halving churn slot or routing memo).
        let (hits, lookups) = (win.cache.hits, win.cache.hits + win.cache.misses);
        values.insert(
            "plan_cache.hit_frac",
            if lookups == 0 { 1.0 } else { hits as f64 / lookups as f64 },
        );

        let dir = out_dir();
        let batches_per_op = values["service.batches_per_block"] / win.thr_ops as f64;
        let budget = Duration::from_secs_f64(opts.seconds * 0.5);
        let cache_dir = dir.join(format!("plan-cache-{}", std::process::id()));
        let replayed = layers::replay(&w, batches_per_op, opts.seed, budget, &cache_dir, &mut tr)?;
        values.extend(replayed.metrics);
        values.insert("service.residual_us", values["service.drain_us"] - replayed.below_drain_us);
        values.extend(host.clone());

        let path = dir.join(format!("trace-{}.json", w.name));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tr.chrome_json(1000)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        trace_file = Some(path.display().to_string());
    }
    // Last, so it covers everything the run did; without the
    // calibration kernels' arena, which is the benchmark's own.
    let rss =
        nhood_cluster::peak_rss_bytes().unwrap_or(0).saturating_sub(calib::ARENA_BYTES as u64);
    values.insert("peak_rss_mb", rss as f64 / (1 << 20) as f64);

    // The schema of this mode, in order; a metric nothing produced is a bug.
    let schema: Vec<(&'static str, &'static str)> = if opts.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = schema
        .into_iter()
        .map(|(name, unit)| match values.get(name) {
            Some(&v) => Ok((name, v, unit)),
            None => Err(format!("metric {name} not produced")),
        })
        .collect::<Result<Vec<_>, _>>()?;

    let misverified = win.misverified_blocks;
    let correct =
        tally.failed == 0 && misverified == 0 && metrics.iter().all(|&(_, v, _)| v.is_finite());
    let header = obj([
        ("workload", Value::from(w.name)),
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        ("trace", Value::from(opts.trace)),
        ("backend", Value::from(format!("{:?}", w.backend))),
        ("commit", Value::from(host::commit())),
        ("rustc", Value::from(env!("NHOOD_BENCH_RUSTC"))),
        ("nproc", Value::from(host::nproc() as u64)),
        ("build_threads", Value::from(cfg.build_threads as u64)),
        ("llc_size", Value::from(host::llc_size())),
        ("malloc_pinned", Value::from(pinned)),
        ("block_pairs", Value::from(pairs as u64)),
        ("warmup_blocks_discarded", Value::from((win.thr.len() / 10) as u64)),
        ("ops_per_block", Value::from(win.thr_ops)),
        ("setups", Value::from(win.setups.len() as u64)),
        // Computed from the inputs: payload bytes in + receive bytes out.
        (
            "block_working_set_kib",
            Value::from(
                (w.payload_bytes() + expect.iter().map(|e| e.delivered).sum::<u64>()) as f64
                    / 1024.0,
            ),
        ),
        ("window_s", Value::from(win.wall.as_secs_f64())),
        // Times (us) at p0, p1, p5, p25, p50, p75, p99: as measured, and
        // on the nominal host.
        ("throughput_block_us", percentiles_us(&thr_raw)),
        ("throughput_block_nominal_us", percentiles_us(&thr)),
        ("latency_block_us", percentiles_us(&lat_raw)),
        ("latency_block_nominal_us", percentiles_us(&lat)),
        ("setup_us", percentiles_us(&setups_raw)),
        ("setup_nominal_us", percentiles_us(&setups)),
        ("misverified_blocks", Value::from(misverified)),
        ("dropped_spans", Value::from(tr.dropped)),
        ("trace_file", trace_file.map_or(Value::Null, Value::from)),
    ]);
    let mut all = host;
    all.extend(values);
    let record = obj([
        ("header", header),
        ("correct", Value::from(correct)),
        ("attempted", Value::from(tally.attempted)),
        ("failed", Value::from(tally.failed)),
        ("noisy", Value::from(noisy)),
        ("metrics", obj(all.into_iter().map(|(k, v)| (k, Value::from(v))))),
    ]);
    Ok(RunOutput { correct, attempted: tally.attempted, failed: tally.failed, metrics, record })
}
