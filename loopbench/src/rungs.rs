//! In-process rungs of the layer ladder: the wire codec over the frames a
//! workload recorded, the sharded store through `execute_batch`, and the
//! group-commit WAL's stage→wait barrier. Each times public entry points
//! directly, with no socket or daemon in the way.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use gocc_optilock::{GoccConfig, GoccRuntime};
use gocc_server::{Mode, ShardedStore};
use gocc_wal::{Staged, SyncPolicy, Wal, WalConfig, WalKind};
use gocc_wire::{decode_request_any, decode_response, encode_response, FrameBuf, Request};
use gocc_workloads::Engine;

use crate::alloc::thread_allocs;
use crate::client::{self, Capture, Keys, Op, OpGen, Shape, CONNS};

/// How long each rung repeats its work.
const RUNG_TIME: Duration = Duration::from_millis(600);

/// Store geometry of a default `goccd`: 4 shards of 16384 entries.
const SHARDS: usize = 4;
const SHARD_CAPACITY: usize = 1 << 14;

/// Requests per `execute_batch` call in the batch rung: the mean
/// shard-group size `pipe-d32` reports in STATS `batch.requests_per_batch`
/// at the commit that introduced this benchmark.
pub const PIPE_BATCH: usize = 8;

type Put<'a> = &'a mut dyn FnMut(&str, f64, &'static str);

/// Times `FrameBuf::next_frame` + `decode_request_any` per request frame
/// and `encode_response` per response over a recorded capture.
pub fn wire(capture: &Capture, put: Put<'_>) {
    // Response values, decoded once from the captured stream.
    let mut frames = FrameBuf::new();
    frames.extend(&capture.responses);
    let mut bodies = Vec::new();
    while let Ok(Some(body)) = frames.next_frame() {
        bodies.push(body.to_vec());
    }
    let responses: Vec<_> = bodies
        .iter()
        .filter_map(|b| decode_response(b).ok())
        .collect();
    // Whole request frames only: the capture may end mid-frame.
    let mut cut = 0;
    while cut + 4 <= capture.requests.len() {
        let len = u32::from_le_bytes(capture.requests[cut..cut + 4].try_into().expect("4 bytes"))
            as usize;
        if cut + 4 + len > capture.requests.len() {
            break;
        }
        cut += 4 + len;
    }
    let requests = &capture.requests[..cut];

    // Socket-sized chunks into one long-lived buffer, as a connection
    // reads them.
    let mut buf = FrameBuf::new();
    let mut decode = |frames: &mut u64| {
        for chunk in requests.chunks(16 * 1024) {
            buf.extend(chunk);
            while let Ok(Some(body)) = buf.next_frame() {
                black_box(decode_request_any(black_box(body)).ok());
                *frames += 1;
            }
        }
    };
    let mut warm = 0;
    decode(&mut warm);
    let (mut frames, mut allocs) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed() < RUNG_TIME {
        let a0 = thread_allocs();
        decode(&mut frames);
        allocs += thread_allocs() - a0;
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / frames as f64;
    let decode_allocs = allocs as f64 / frames as f64;

    let mut out = Vec::with_capacity(64 * 1024);
    let mut encode = |n: &mut u64| {
        for r in &responses {
            encode_response(black_box(r), &mut out);
            if out.len() > 32 * 1024 {
                out.clear();
            }
            *n += 1;
        }
    };
    let mut warm = 0;
    encode(&mut warm);
    let (mut n, mut allocs) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed() < RUNG_TIME {
        let a0 = thread_allocs();
        encode(&mut n);
        allocs += thread_allocs() - a0;
    }
    put("wire.decode_ns", decode_ns, "ns");
    put(
        "wire.encode_ns",
        t0.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    );
    put(
        "wire.allocs_per_frame",
        decode_allocs + allocs as f64 / n as f64,
        "count",
    );
}

/// A private runtime + store shaped like a default `goccd`, holding every
/// key of a workload.
struct Store {
    rt: GoccRuntime,
    store: ShardedStore,
    keys: Keys,
    shape: Shape,
}

impl Store {
    fn new(shape: Shape) -> Store {
        let s = Store {
            rt: GoccRuntime::new(GoccConfig::with_telemetry()),
            store: ShardedStore::new(SHARDS, SHARD_CAPACITY),
            keys: Keys::new(shape.keys),
            shape,
        };
        let engine = Engine::new(&s.rt, Mode::Gocc);
        for conn in 0..CONNS {
            for slot in 0..s.keys.slots() {
                let req = client::request(Op::Set(slot, slot as u64), conn, &s.keys);
                let routed = [s.store.batch_op_for(&req).expect("SET batches")];
                black_box(
                    s.store
                        .execute_batch(&engine, &routed, None, |_, _, run| run()),
                );
            }
        }
        s
    }

    /// `count` requests of the workload's first connection, SCANs left
    /// out (they never batch).
    fn mix(&self, seed: u64, count: usize) -> Vec<Request<'_>> {
        let zipf = client::zipf_for(&self.keys);
        let shape = Shape {
            scan_every: 0,
            ..self.shape
        };
        let mut gen = OpGen::new(seed, 0, &zipf, shape);
        (0..count)
            .map(|_| client::request(gen.next_op(), 0, &self.keys))
            .collect()
    }

    /// Runs `reqs` in `execute_batch` calls of `batch` requests, repeated
    /// for the rung time; returns `(ns per request, allocations per
    /// request)`.
    fn time_batches(&self, mode: Mode, reqs: &[Request<'_>], batch: usize) -> (f64, f64) {
        let engine = Engine::new(&self.rt, mode);
        let routed: Vec<_> = reqs
            .iter()
            .map(|r| self.store.batch_op_for(r).expect("data verbs batch"))
            .collect();
        let pass = || {
            for chunk in routed.chunks(batch) {
                black_box(
                    self.store
                        .execute_batch(&engine, chunk, None, |_, _, run| run()),
                );
            }
        };
        pass();
        let (mut n, mut allocs) = (0u64, 0u64);
        let t0 = Instant::now();
        while t0.elapsed() < RUNG_TIME {
            let a0 = thread_allocs();
            pass();
            allocs += thread_allocs() - a0;
            n += routed.len() as u64;
        }
        (
            t0.elapsed().as_nanos() as f64 / n as f64,
            allocs as f64 / n as f64,
        )
    }
}

/// Store rungs: one section per request on the `point-d1` mix, and
/// `PIPE_BATCH`-request groups on the `pipe-d32` mix in gocc and lock mode.
pub fn store(seed: u64, point: Shape, pipe: Shape, put: Put<'_>) {
    let point = Store::new(point);
    let reqs = point.mix(seed, 50_000);
    let (ns, _) = point.time_batches(Mode::Gocc, &reqs, 1);
    put("store.execute_ns", ns, "ns");
    drop(reqs);

    let pipe = Store::new(pipe);
    let reqs = pipe.mix(seed, 50_000);
    let (ns, allocs) = pipe.time_batches(Mode::Gocc, &reqs, PIPE_BATCH);
    put("store.batch_ns_per_op", ns, "ns");
    put("store.allocs_per_op", allocs, "count");
    let (ns, _) = pipe.time_batches(Mode::Lock, &reqs, PIPE_BATCH);
    put("store.batch_ns_per_op.lock", ns, "ns");
}

/// WAL rung: median stage→wait commit latency of a group-commit log in
/// `dir`, driven by two writer threads.
pub fn wal(dir: &Path, put: Put<'_>) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let cfg = WalConfig {
        sync: SyncPolicy::Group,
        ..WalConfig::default()
    };
    let (wal, _) = Wal::open(dir, 2, cfg).map_err(|e| format!("opening the WAL rung log: {e}"))?;
    let mut lat: Vec<u64> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u32)
            .map(|shard| {
                let wal = &wal;
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let t_end = Instant::now() + RUNG_TIME;
                    let mut seq = 0;
                    while Instant::now() < t_end {
                        seq += 1;
                        let t0 = Instant::now();
                        let ticket = wal.stage(Staged {
                            shard,
                            seq,
                            kind: WalKind::Put,
                            key: seq,
                            value: seq,
                            exp: 0,
                        });
                        wal.wait(ticket).map_err(|e| format!("WAL wait: {e:?}"))?;
                        lat.push(t0.elapsed().as_nanos() as u64);
                    }
                    Ok::<_, String>(lat)
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in writers {
            all.extend(w.join().expect("WAL writer thread panicked")?);
        }
        Ok::<_, String>(all)
    })?;
    wal.shutdown();
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    lat.sort_unstable();
    put(
        "wal.commit_us_p50",
        lat.get(lat.len() / 2).copied().unwrap_or(0) as f64 / 1e3,
        "us",
    );
    Ok(())
}
