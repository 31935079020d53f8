//! `loopbench` — end-to-end loopback benchmark of `goccd`.
//!
//! ```console
//! $ loopbench --goccd PATH --data-root DIR --workload point-d1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Starts `goccd` child processes (default `gocc` mode), preloads every
//! key, drives a seeded closed loop from two connections, checks every
//! response against an exact oracle and prints each metric with its unit.
//! The last stdout line is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run is
//! separate from the measured ones: it reruns the workload untraced (for
//! STATS deltas) and traced (for span self times), runs the durable
//! passes (WAL + replica, then WAL only), and times the in-process wire,
//! store and WAL rungs.

mod alloc;
mod client;
mod daemon;
mod layers;
mod procfs;
mod rungs;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gocc_loadgen::zipf::Zipf;
use gocc_telemetry::JsonValue;

use client::{Capture, Class, Keys, Op, OpGen, Oracle, Shape, Tally, CONNS};
use daemon::Daemon;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Unmeasured traffic before the window, so the perceptron has learned
/// and lazy set-up has run.
const WARMUP: Duration = Duration::from_secs(1);
/// Quiet interval of the idle-CPU probe.
const IDLE_PROBE: Duration = Duration::from_secs(1);
/// A measured run repeats its set-up at least `SETUP_MIN` times and until
/// `SETUP_TIME` has passed (at most `SETUP_MAX`); `setup_s` is the median.
/// A fast set-up is short enough for scheduling noise to dominate one
/// sample, so it gets more of them.
const SETUP_MIN: usize = 11;
const SETUP_TIME: Duration = Duration::from_secs(3);
const SETUP_MAX: usize = 61;
/// Window of each durable pass of a traced run.
const DURABLE_WINDOW: Duration = Duration::from_secs(10);
/// Flight-recorder sampling of the traced passes (one request in N).
const TRACE_SAMPLE_N: u64 = 64;
/// Length of one slice of the measured window.
const SLICE: Duration = Duration::from_millis(100);

/// How a workload's daemons are deployed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Topology {
    /// One in-memory `goccd`.
    Memory,
    /// Group-commit WAL primary with `min_acks = 1` plus one WAL replica.
    Replicated,
    /// The same primary with its WAL but no replica (`min_acks = 0`).
    WalOnly,
}

struct Workload {
    name: &'static str,
    shape: Shape,
    topology: Topology,
}

const POINT_D1: Workload = Workload {
    name: "point-d1",
    shape: Shape {
        depth: 1,
        read_pct: 90,
        keys: 32_768,
        scan_every: 2048,
    },
    topology: Topology::Memory,
};

const PIPE_D32: Workload = Workload {
    name: "pipe-d32",
    shape: Shape {
        depth: 32,
        read_pct: 50,
        keys: 4096,
        scan_every: 0,
    },
    topology: Topology::Memory,
};

/// The durable shape. Every traced run measures its layers; it can also
/// be run as a workload by hand, but its end-to-end figures track the
/// host's disk and steal more than the code (see README.md).
const DURABLE_D8: Workload = Workload {
    name: "durable-d8",
    shape: Shape {
        depth: 8,
        read_pct: 50,
        keys: 32_768,
        scan_every: 0,
    },
    topology: Topology::Replicated,
};

const WORKLOADS: [&Workload; 3] = [&POINT_D1, &PIPE_D32, &DURABLE_D8];

struct Args {
    goccd: PathBuf,
    data_root: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    let (mut goccd, mut data_root, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--goccd" => goccd = Some(PathBuf::from(value)),
            "--data-root" => data_root = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(int(value)?),
            "--seconds" => seconds = Some(int(value)?.max(1)),
            "--trace" => trace = Some(int(value)? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        goccd: goccd.ok_or("--goccd is required")?,
        data_root: data_root.ok_or("--data-root is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Named metrics with their units, in print order.
type Metrics = Vec<(String, f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.push((name.to_string(), value, unit));
}

/// What one run hands to the report.
#[derive(Default)]
struct Outcome {
    tally: Tally,
    metrics: Metrics,
}

/// What a run shares between its set-ups and passes.
struct Ctx<'a> {
    args: &'a Args,
    /// This run's private working directory under the data root.
    dir: PathBuf,
}

/// A workload's traffic, ready to drive.
struct Load {
    workload: &'static Workload,
    keys: Keys,
    zipf: Zipf,
}

impl Load {
    fn new(workload: &'static Workload) -> Load {
        let keys = Keys::new(workload.shape.keys);
        Load {
            workload,
            zipf: client::zipf_for(&keys),
            keys,
        }
    }
}

/// One deployment of daemons plus the clients' oracles after preload.
struct Rig {
    primary: Daemon,
    primary_args: Vec<String>,
    replica: Option<Daemon>,
    oracles: Vec<Oracle>,
}

impl Rig {
    fn daemons(&self) -> impl Iterator<Item = &Daemon> {
        std::iter::once(&self.primary).chain(self.replica.as_ref())
    }

    fn stop(mut self) {
        if let Some(r) = &mut self.replica {
            r.stop();
        }
        self.primary.stop();
    }
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_string()).collect()
}

/// Spawns the daemons of `topology` with fresh data directories and
/// preloads every key through the clients' oracles. Returns the rig, the
/// set-up time (spawn → preload acked, replica caught up) and the preload
/// tally.
fn set_up(
    ctx: &Ctx<'_>,
    load: &Load,
    topology: Topology,
    trace_n: u64,
) -> Result<(Rig, f64, Tally), String> {
    let primary_dir = ctx.dir.join("primary");
    let replica_dir = ctx.dir.join("replica");
    for d in [&primary_dir, &replica_dir] {
        let _ = std::fs::remove_dir_all(d);
        if topology != Topology::Memory {
            std::fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))?;
        }
    }
    let common = strings(&["--mode", "gocc", "--trace-sample-n", &trace_n.to_string()]);
    let wal = |dir: &PathBuf| {
        let mut a = strings(&["--wal-sync", "group", "--data-dir"]);
        a.push(dir.display().to_string());
        a
    };
    let mut primary_args = common.clone();
    match topology {
        Topology::Memory => {}
        Topology::WalOnly => {
            primary_args.extend(wal(&primary_dir));
            primary_args.extend(strings(&["--checkpoint-every", "20000"]));
        }
        Topology::Replicated => {
            primary_args.extend(wal(&primary_dir));
            primary_args.extend(strings(&[
                "--checkpoint-every",
                "20000",
                "--repl-accept",
                "--repl-min-acks",
                "1",
            ]));
        }
    }

    let t0 = Instant::now();
    let primary = Daemon::spawn(&ctx.args.goccd, &primary_args)?;
    let replica = if topology == Topology::Replicated {
        let mut args = common;
        args.extend(wal(&replica_dir));
        args.push("--replica-of".into());
        args.push(format!("127.0.0.1:{}", primary.port));
        let replica = Daemon::spawn(&ctx.args.goccd, &args)?;
        wait_for("the replica to subscribe", || {
            Ok(layers::num(&stats(primary.port)?, &["repl", "subscribers"]) >= 1.0)
        })?;
        Some(replica)
    } else {
        None
    };
    let mut oracles: Vec<Oracle> = (0..CONNS)
        .map(|c| Oracle::new(c, load.keys.slots()))
        .collect();
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = oracles
            .iter_mut()
            .enumerate()
            .map(|(c, oracle)| {
                s.spawn(move || client::preload(primary.port, c, ctx.args.seed, &load.keys, oracle))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .collect::<Result<Vec<Tally>, _>>()
    })
    .map_err(|e| format!("preload: {e}"))?;
    if let Some(r) = &replica {
        let versions = |port| -> Result<String, String> {
            let doc = stats(port)?;
            Ok(format!(
                "{:?}",
                doc.get("repl").and_then(|r| r.get("versions"))
            ))
        };
        wait_for("the replica to catch up", || {
            Ok(versions(primary.port)? == versions(r.port)?)
        })?;
    }
    let secs = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    tallies.iter().for_each(|t| tally.add(t));
    let rig = Rig {
        primary,
        primary_args,
        replica,
        oracles,
    };
    Ok((rig, secs, tally))
}

fn stats(port: u16) -> Result<JsonValue, String> {
    gocc_loadgen::fetch_stats(port).map(|d| d.parsed)
}

/// Polls `ready` every 2 ms for up to 20 s.
fn wait_for(what: &str, mut ready: impl FnMut() -> Result<bool, String>) -> Result<(), String> {
    let until = Instant::now() + Duration::from_secs(20);
    while Instant::now() < until {
        if ready()? {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(format!("timed out waiting for {what}"))
}

/// CPU the rig's daemons burn with no client connected, in cores.
fn idle_cpu(rig: &Rig) -> f64 {
    let cpu = || -> u64 {
        rig.daemons()
            .map(|d| procfs::threads_cpu_ns(d.pid(), ""))
            .sum()
    };
    let (c0, t0) = (cpu(), Instant::now());
    std::thread::sleep(IDLE_PROBE);
    cpu().saturating_sub(c0) as f64 / t0.elapsed().as_nanos() as f64
}

/// Latencies (ns) completed in one slice of the window.
#[derive(Clone, Default)]
struct Slice {
    get: Vec<u32>,
    write: Vec<u32>,
    scan: Vec<u32>,
}

impl Slice {
    fn class(&mut self, c: Class) -> &mut Vec<u32> {
        match c {
            Class::Get => &mut self.get,
            Class::Write => &mut self.write,
            Class::Scan => &mut self.scan,
        }
    }

    fn ops(&self) -> u64 {
        (self.get.len() + self.write.len() + self.scan.len()) as u64
    }
}

/// Client-side results of one measured window, slice by slice.
#[derive(Default)]
struct Samples {
    slices: Vec<Slice>,
}

impl Samples {
    fn new(window: Duration) -> Samples {
        Samples {
            slices: vec![Slice::default(); (window.as_nanos() / SLICE.as_nanos()) as usize],
        }
    }

    fn ops(&self) -> u64 {
        self.slices.iter().map(Slice::ops).sum()
    }

    fn merge(&mut self, o: Samples) {
        if self.slices.len() < o.slices.len() {
            self.slices.resize(o.slices.len(), Slice::default());
        }
        for (a, mut b) in self.slices.iter_mut().zip(o.slices) {
            for c in [Class::Get, Class::Write, Class::Scan] {
                a.class(c).append(b.class(c));
            }
        }
    }

    /// Every latency of class `c` in the window.
    fn pooled(&mut self, c: Class) -> Vec<u32> {
        self.slices
            .iter_mut()
            .flat_map(|s| s.class(c).iter().copied())
            .collect()
    }

    /// Median over the slices of their throughput: a stall or a burst of
    /// host steal moves a few slices, not the median.
    fn median_throughput(&self) -> f64 {
        let mut per: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.ops() as f64 / SLICE.as_secs_f64())
            .collect();
        median(&mut per)
    }
}

/// One measured window.
struct Window {
    samples: Samples,
    tally: Tally,
    window_s: f64,
    /// CPU of each daemon over the window (primary first), ns.
    daemon_cpu_ns: Vec<u64>,
    /// CPU of the primary's `goccd-worker-*` threads over the window, ns.
    worker_cpu_ns: u64,
    self_cpu_ns: u64,
    steal_frac: f64,
    rss_mb: f64,
    /// STATS of each daemon at the window's start and end (layer passes).
    stats: Vec<(JsonValue, JsonValue)>,
    capture: Option<Capture>,
}

impl Window {
    fn ops(&self) -> f64 {
        self.samples.ops() as f64
    }

    fn p50_us(&mut self, c: Class) -> f64 {
        percentile_us(&mut self.samples.pooled(c), 0.50)
    }
}

/// Process-level readings at one edge of the window.
struct Snap {
    at: Instant,
    cpu: Vec<u64>,
    workers: u64,
    me: u64,
    host: procfs::HostTicks,
    stats: Vec<JsonValue>,
}

/// Drives the rig's primary from `CONNS` client threads: `WARMUP`, then
/// `window`. Every response is checked by the rig's oracles. With
/// `with_layers`, STATS is read at both edges of the window and the
/// first connection records its request and response bytes.
fn measure(
    load: &Load,
    seed: u64,
    rig: &mut Rig,
    window: Duration,
    with_layers: bool,
) -> Result<Window, String> {
    let shape = load.workload.shape;
    let port = rig.primary.port;
    let t_start = Instant::now() + WARMUP;
    let t_end = t_start + window;
    let pids: Vec<u32> = rig.daemons().map(Daemon::pid).collect();
    let ports: Vec<u16> = rig.daemons().map(|d| d.port).collect();
    let snapshot = || -> Result<Snap, String> {
        Ok(Snap {
            at: Instant::now(),
            cpu: pids.iter().map(|&p| procfs::process_cpu_ns(p)).collect(),
            workers: procfs::threads_cpu_ns(pids[0], "goccd-worker"),
            me: procfs::self_cpu_ns(),
            host: procfs::HostTicks::now(),
            stats: if with_layers {
                ports.iter().map(|&p| stats(p)).collect::<Result<_, _>>()?
            } else {
                Vec::new()
            },
        })
    };
    let (per_conn, snaps) = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .oracles
            .iter_mut()
            .enumerate()
            .map(|(c, oracle)| {
                s.spawn(
                    move || -> Result<(Samples, Tally, Option<Capture>), String> {
                        let mut stream =
                            client::connect(port).map_err(|e| format!("connect: {e}"))?;
                        let mut gen = OpGen::new(seed, c, &load.zipf, shape);
                        let mut samples = Samples::new(window);
                        let mut capture = (with_layers && c == 0).then(Capture::default);
                        let tally = client::pump(
                            &mut stream,
                            shape.depth,
                            oracle,
                            &load.keys,
                            || (Instant::now() < t_end).then(|| gen.next_op()),
                            |op: Op, t0: Instant, t1: Instant| {
                                if t1 < t_start || t1 >= t_end {
                                    return;
                                }
                                let ns = (t1 - t0).as_nanos().min(u128::from(u32::MAX)) as u32;
                                let slice = ((t1 - t_start).as_nanos() / SLICE.as_nanos()) as usize;
                                samples.slices[slice].class(op.class()).push(ns);
                            },
                            capture.as_mut(),
                        );
                        Ok((samples, tally, capture))
                    },
                )
            })
            .collect();
        let snaps = (|| -> Result<(Snap, Snap), String> {
            sleep_until(t_start);
            let a = snapshot()?;
            sleep_until(t_end);
            Ok((a, snapshot()?))
        })();
        let per_conn: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (per_conn, snaps)
    });
    let (a, b) = snaps?;
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut capture = None;
    for r in per_conn {
        let (s, t, c) = r?;
        samples.merge(s);
        tally.add(&t);
        capture = capture.or(c);
    }
    Ok(Window {
        samples,
        tally,
        window_s: (b.at - a.at).as_secs_f64(),
        daemon_cpu_ns: b
            .cpu
            .iter()
            .zip(&a.cpu)
            .map(|(x, y)| x.saturating_sub(*y))
            .collect(),
        worker_cpu_ns: b.workers.saturating_sub(a.workers),
        self_cpu_ns: b.me.saturating_sub(a.me),
        steal_frac: b.host.steal_frac_since(&a.host),
        rss_mb: pids.iter().map(|&p| procfs::peak_rss_mb(p)).sum(),
        stats: a.stats.into_iter().zip(b.stats).collect(),
        capture,
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Nearest-rank percentile of unsorted ns samples, in µs.
fn percentile_us(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    f64::from(samples[rank - 1]) / 1e3
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The durable shape's post-window checks: every owned key read back from
/// the replica, then the primary SIGKILLed, restarted from its data
/// directory and read back too. Returns the restart-to-HEALTH time in ms.
fn crash_and_read_back(
    ctx: &Ctx<'_>,
    load: &Load,
    rig: &mut Rig,
    tally: &mut Tally,
) -> Result<f64, String> {
    let replica = rig.replica.as_ref().ok_or("no replica to read back")?;
    for oracle in &mut rig.oracles {
        let t = client::read_back(replica.port, &load.keys, oracle)
            .map_err(|e| format!("replica read-back: {e}"))?;
        tally.add(&t);
    }
    rig.primary.kill();
    let t0 = Instant::now();
    rig.primary = Daemon::spawn(&ctx.args.goccd, &rig.primary_args)?;
    gocc_loadgen::fetch_health(rig.primary.port)?;
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    for oracle in &mut rig.oracles {
        let t = client::read_back(rig.primary.port, &load.keys, oracle)
            .map_err(|e| format!("restarted primary read-back: {e}"))?;
        tally.add(&t);
    }
    Ok(recovery_ms)
}

/// Host-noise figures recorded next to every window.
fn noise_metrics(w: &Window, m: &mut Metrics) {
    put(m, "host.steal_frac", w.steal_frac, "ratio");
    put(
        m,
        "client.cpu_us_per_op",
        w.self_cpu_ns as f64 / 1e3 / w.ops().max(1.0),
        "us",
    );
}

/// A measured run: repeated set-ups (the last one kept), the idle
/// probe, then the window. Prints the end-to-end metrics.
fn run_measured(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let load = Load::new(ctx.args.workload);
    let topology = load.workload.topology;
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut rig = None;
    let t0 = Instant::now();
    while setups.len() < SETUP_MIN || (t0.elapsed() < SETUP_TIME && setups.len() < SETUP_MAX) {
        if let Some(previous) = rig.take() {
            Rig::stop(previous);
        }
        let (r, secs, t) = set_up(ctx, &load, topology, 0)?;
        setups.push(secs);
        out.tally.add(&t);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    let idle = idle_cpu(&rig);
    let mut w = measure(
        &load,
        ctx.args.seed,
        &mut rig,
        Duration::from_secs(ctx.args.seconds),
        false,
    )?;
    out.tally.add(&w.tally);
    if topology == Topology::Replicated {
        crash_and_read_back(ctx, &load, &mut rig, &mut out.tally)?;
    }
    rig.stop();

    let m = &mut out.metrics;
    let mut info = Metrics::new();
    put(
        &mut info,
        "throughput_ops_s",
        w.samples.median_throughput(),
        "1/s",
    );
    for (class, name) in [(Class::Get, "get"), (Class::Write, "write")] {
        let mut all = w.samples.pooled(class);
        put(
            m,
            &format!("{name}_p50_us"),
            percentile_us(&mut all, 0.50),
            "us",
        );
        put(
            &mut info,
            &format!("{name}_p99_us"),
            percentile_us(&mut all, 0.99),
            "us",
        );
        put(
            &mut info,
            &format!("samples.{name}"),
            all.len() as f64,
            "count",
        );
    }
    let cpu: u64 = w.daemon_cpu_ns.iter().sum();
    put(
        m,
        "cpu_us_per_op",
        cpu as f64 / 1e3 / w.ops().max(1.0),
        "us",
    );
    put(m, "rss_mb", w.rss_mb, "MB");
    put(m, "setup_s", median(&mut setups), "s");
    put(
        &mut info,
        "samples.scan",
        w.samples.pooled(Class::Scan).len() as f64,
        "count",
    );
    noise_metrics(&w, &mut info);
    put(&mut info, "server.idle_cpu_frac", idle, "cores");
    print_info(load.workload.name, &out, &info);
    Ok(out)
}

/// Drains every retained span of each daemon of `rig` into `acc`.
fn drain_self_times(rig: &Rig, acc: &mut layers::SelfTimes) -> Result<(), String> {
    for d in rig.daemons() {
        let mut spans = Vec::new();
        for _ in 0..16 {
            let doc = gocc_loadgen::fetch_trace(d.port, 2000)?;
            if doc.spans().is_empty() {
                break;
            }
            spans.extend_from_slice(doc.spans());
        }
        layers::add_self_times(&spans, acc);
    }
    Ok(())
}

/// A traced run: the per-layer metrics, never compared end to end.
fn run_traced(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let load = Load::new(ctx.args.workload);
    let seed = ctx.args.seed;
    let window = Duration::from_secs(ctx.args.seconds);
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let m = &mut out.metrics;

    // Untraced pass of the workload: STATS deltas, worker CPU, idle
    // probe, and the frames the wire rung replays.
    let (mut rig, _, t) = set_up(ctx, &load, load.workload.topology, 0)?;
    tally.add(&t);
    let idle = idle_cpu(&rig);
    let mut w = measure(&load, seed, &mut rig, window, true)?;
    tally.add(&w.tally);
    rig.stop();
    let sw = layers::StatsWindow {
        before: &w.stats[0].0,
        after: &w.stats[0].1,
    };
    let request_p50 = layers::num(sw.after, &["request_latency", "p50_ns"]) / 1e3;
    let mut layer = Metrics::new();
    layers::server_metrics(&sw, w.ops(), &mut layer);
    put(m, "server.request_p50_us", request_p50, "us");
    put(
        m,
        "server.outside_us",
        w.p50_us(Class::Get) - request_p50,
        "us",
    );
    put(
        m,
        "server.worker_cpu_frac",
        w.worker_cpu_ns as f64 / (w.window_s * 1e9),
        "cores",
    );
    put(m, "server.idle_cpu_frac", idle, "cores");
    m.append(&mut layer);
    put(
        m,
        "client.throughput_ops_s",
        w.samples.median_throughput(),
        "1/s",
    );
    put(
        m,
        "client.get_p99_us",
        percentile_us(&mut w.samples.pooled(Class::Get), 0.99),
        "us",
    );
    put(
        m,
        "client.write_p99_us",
        percentile_us(&mut w.samples.pooled(Class::Write), 0.99),
        "us",
    );
    noise_metrics(&w, m);

    // Traced pass of the workload: span self times and what tracing costs.
    let mut self_times = layers::SelfTimes::new();
    let (mut rig, _, t) = set_up(ctx, &load, load.workload.topology, TRACE_SAMPLE_N)?;
    tally.add(&t);
    let tw = measure(&load, seed, &mut rig, window, false)?;
    tally.add(&tw.tally);
    drain_self_times(&rig, &mut self_times)?;
    rig.stop();
    let overhead = 1.0 - (tw.ops() / tw.window_s) / (w.ops() / w.window_s).max(1.0);

    // Durable passes (traced): WAL + replica, then WAL only. Their STATS
    // give the wal/repl layers; the gap between their write medians is
    // the replica's share.
    let durable = Load::new(&DURABLE_D8);
    let (mut rig, _, t) = set_up(ctx, &durable, Topology::Replicated, TRACE_SAMPLE_N)?;
    tally.add(&t);
    let mut dw = measure(&durable, seed, &mut rig, DURABLE_WINDOW, true)?;
    tally.add(&dw.tally);
    drain_self_times(&rig, &mut self_times)?;
    let recovery_ms = crash_and_read_back(ctx, &durable, &mut rig, &mut tally)?;
    rig.stop();
    let (mut rig, _, t) = set_up(ctx, &durable, Topology::WalOnly, TRACE_SAMPLE_N)?;
    tally.add(&t);
    let mut ww = measure(&durable, seed, &mut rig, DURABLE_WINDOW, false)?;
    tally.add(&ww.tally);
    rig.stop();
    let durable_write_p50 = dw.p50_us(Class::Write);
    let walonly_write_p50 = ww.p50_us(Class::Write);
    put(
        m,
        "durable.throughput_ops_s",
        dw.samples.median_throughput(),
        "1/s",
    );
    put(m, "durable.write_p50_us", durable_write_p50, "us");
    put(
        m,
        "durable.write_p99_us",
        percentile_us(&mut dw.samples.pooled(Class::Write), 0.99),
        "us",
    );
    put(m, "walonly.write_p50_us", walonly_write_p50, "us");
    put(
        m,
        "repl.ack_us",
        durable_write_p50 - walonly_write_p50,
        "us",
    );
    let primary = layers::StatsWindow {
        before: &dw.stats[0].0,
        after: &dw.stats[0].1,
    };
    let replica = dw
        .stats
        .get(1)
        .map(|(before, after)| layers::StatsWindow { before, after });
    layers::durable_metrics(&primary, replica.as_ref(), m);
    put(m, "wal.recovery_ms", recovery_ms, "ms");
    let replica_cpu = dw.daemon_cpu_ns.get(1).copied().unwrap_or(0);
    put(
        m,
        "repl.replica_cpu_us_per_op",
        replica_cpu as f64 / 1e3 / dw.ops().max(1.0),
        "us",
    );

    for kind in layers::SPAN_KINDS {
        let (sum, n) = self_times.get(kind).copied().unwrap_or((0.0, 0));
        put(
            m,
            &format!("trace.{kind}_ns"),
            if n == 0 { 0.0 } else { sum / n as f64 },
            "ns",
        );
    }
    put(m, "trace.overhead_frac", overhead, "ratio");

    // In-process rungs.
    gocc_gosync::set_procs(8);
    let mut rung = |name: &str, v: f64, unit: &'static str| put(m, name, v, unit);
    rungs::wire(
        w.capture.as_ref().expect("the layer pass records frames"),
        &mut rung,
    );
    rungs::store(seed, POINT_D1.shape, PIPE_D32.shape, &mut rung);
    rungs::wal(&ctx.dir.join("wal-rung"), &mut rung)?;

    out.tally = tally;
    let name = load.workload.name;
    println!("{name} server.pump_no_socket: unavailable (no public entry point runs the pump without a socket)");
    print_info(name, &out, &Metrics::new());
    Ok(out)
}

fn print_info(name: &str, out: &Outcome, extra: &Metrics) {
    for (k, v, unit) in out.metrics.iter().chain(extra) {
        println!("{name} {k} = {v:.4} {unit}");
    }
    let t = &out.tally;
    println!(
        "{name} failed_frac = {:.6} ratio ({} failed of {} attempted: {} errors, {} wrong answers, {} unanswered)",
        t.failed() as f64 / t.attempted.max(1) as f64,
        t.failed(),
        t.attempted,
        t.errors,
        t.wrong,
        t.unanswered
    );
}

fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed() == 0 && out.tally.attempted > 0,
        out.tally.attempted.max(1),
        out.tally.failed(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !client::oracle_catches_wrong_values() {
        eprintln!("loopbench: the oracle self-test did not flag a wrong value");
        return ExitCode::from(3);
    }
    let ctx = Ctx {
        args: &args,
        dir: args.data_root.join(format!("run-{}", std::process::id())),
    };
    let result = if args.trace {
        run_traced(&ctx)
    } else {
        run_measured(&ctx)
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    match result {
        Ok(out) => {
            println!("{}", json_line(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loopbench: {}: {e}", args.workload.name);
            ExitCode::FAILURE
        }
    }
}
