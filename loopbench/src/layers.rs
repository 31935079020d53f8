//! Per-layer figures read from the daemons: STATS counter deltas over the
//! measured window, and flight-recorder self time per span kind.

use std::collections::BTreeMap;

use gocc_telemetry::JsonValue;

/// Number at `path` in a JSON document (0 when absent or not a number).
pub fn num(doc: &JsonValue, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

/// Elision-site counters summed over every `(site, lock)` pair.
#[derive(Clone, Copy, Debug, Default)]
struct Sites {
    starts: f64,
    commits: f64,
    slow: f64,
    conflict: f64,
    capacity: f64,
    explicit: f64,
}

fn sites(stats: &JsonValue) -> Sites {
    let mut s = Sites::default();
    let list = stats
        .get("telemetry")
        .and_then(|t| t.get("sites"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    for site in list {
        s.starts += num(site, &["starts"]);
        s.commits += num(site, &["commits"]);
        s.slow += num(site, &["slow_sections"]);
        s.conflict += num(site, &["aborts", "conflict"]);
        s.capacity += num(site, &["aborts", "capacity"]);
        s.explicit += num(site, &["aborts", "explicit"]);
    }
    s
}

/// STATS documents of one daemon at the start and end of the window.
pub struct StatsWindow<'a> {
    pub before: &'a JsonValue,
    pub after: &'a JsonValue,
}

impl StatsWindow<'_> {
    fn delta(&self, path: &[&str]) -> f64 {
        num(self.after, path) - num(self.before, path)
    }

    /// Histogram sum over the window, rebuilt from `count` × `mean`.
    fn hist_sum(&self, path: &[&str], mean_key: &str) -> (f64, f64) {
        let part = |doc: &JsonValue| {
            let mut p: Vec<&str> = path.to_vec();
            p.push("count");
            let count = num(doc, &p);
            p.pop();
            p.push(mean_key);
            (count, count * num(doc, &p))
        };
        let (c0, s0) = part(self.before);
        let (c1, s1) = part(self.after);
        (c1 - c0, s1 - s0)
    }
}

/// Server batching and HTM/optilock metrics of one daemon's window.
/// `ops` is the data ops the clients completed in it.
pub fn server_metrics(w: &StatsWindow<'_>, ops: f64, out: &mut Vec<(String, f64, &'static str)>) {
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));
    let (batches, batched) = w.hist_sum(&["batch", "requests_per_batch"], "mean");
    put("server.batch_mean", ratio(batched, batches), "req/batch");
    put(
        "server.single_batch_frac",
        ratio(
            w.delta(&["batch", "single_request_batches"]),
            w.delta(&["batch", "batches_executed"]),
        ),
        "ratio",
    );
    // Lifetime maximum: it includes the preload's pipelining.
    let queue_max = w
        .after
        .get("per_worker")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|worker| num(worker, &["queue_depth_max"]))
        .fold(0.0, f64::max);
    put("server.queue_depth_max", queue_max, "frames");

    let (s0, s1) = (sites(w.before), sites(w.after));
    let d = |f: fn(&Sites) -> f64| f(&s1) - f(&s0);
    let starts = d(|s| s.starts);
    put("htm.commit_frac", ratio(d(|s| s.commits), starts), "ratio");
    put(
        "htm.conflict_aborts_per_kop",
        ratio(d(|s| s.conflict), ops) * 1e3,
        "1/kop",
    );
    put(
        "htm.capacity_aborts_per_kop",
        ratio(d(|s| s.capacity), ops) * 1e3,
        "1/kop",
    );
    put(
        "htm.explicit_aborts_per_kop",
        ratio(d(|s| s.explicit), ops) * 1e3,
        "1/kop",
    );
    put(
        "htm.ctx_reused_frac",
        ratio(w.delta(&["telemetry", "ctx_reused"]), starts),
        "ratio",
    );
    let slow = d(|s| s.slow);
    put(
        "optilock.slow_frac",
        ratio(slow, slow + d(|s| s.commits)),
        "ratio",
    );
    let (n, sum) = w.hist_sum(&["telemetry", "slow_latency"], "mean_ns");
    put("optilock.slow_mean_us", ratio(sum, n) / 1e3, "us");
    let (n, sum) = w.hist_sum(&["telemetry", "fast_latency"], "mean_ns");
    put("optilock.fast_mean_ns", ratio(sum, n), "ns");
    put(
        "optilock.watchdog_forced",
        w.delta(&["telemetry", "watchdog_forced"]),
        "count",
    );
}

/// WAL and replication metrics of a durable window: the primary's, plus
/// the replica's own group-commit batching.
pub fn durable_metrics(
    primary: &StatsWindow<'_>,
    replica: Option<&StatsWindow<'_>>,
    out: &mut Vec<(String, f64, &'static str)>,
) {
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));
    let records = primary.delta(&["wal", "records"]);
    put(
        "wal.records_per_fsync",
        ratio(records, primary.delta(&["wal", "fsyncs"])),
        "rec/fsync",
    );
    let replica_rpf = replica.map_or(0.0, |r| {
        ratio(r.delta(&["wal", "records"]), r.delta(&["wal", "fsyncs"]))
    });
    put("wal.records_per_fsync.replica", replica_rpf, "rec/fsync");
    put(
        "wal.bytes_per_write",
        ratio(primary.delta(&["wal", "bytes"]), records),
        "B",
    );
    put(
        "wal.checkpoints",
        primary.delta(&["wal", "checkpoints"]),
        "count",
    );
    put(
        "repl.records_per_batch",
        ratio(
            primary.delta(&["repl", "records_sent"]),
            primary.delta(&["repl", "batches_sent"]),
        ),
        "rec/batch",
    );
    put("repl.naks", primary.delta(&["repl", "naks"]), "count");
    put("repl.resyncs", primary.delta(&["repl", "resyncs"]), "count");
    put(
        "repl.overflows",
        primary.delta(&["repl", "overflows"]),
        "count",
    );
}

/// Span kinds whose self time the traced run reports, outermost first
/// (the order breaks ties between spans covering the same interval).
pub const SPAN_KINDS: [&str; 9] = [
    "wire_decode",
    "queue_wait",
    "batch_exec",
    "store_op",
    "section",
    "htm_attempt",
    "response_write",
    "wal_commit",
    "repl_apply",
];

/// Self-time totals per span kind: `(summed self ns, span count)`.
pub type SelfTimes = BTreeMap<String, (f64, u64)>;

/// Adds the self time of every span in `spans` (one daemon's TRACE
/// drain) to `acc`. A span's self time is its duration minus the part its
/// children cover; children are the spans of the same request nested in
/// its interval. Spans covering exactly the same interval are twins, not
/// parent and child (the server times a shard group once and records it as
/// both `batch_exec` and `store_op`): each keeps the full self time.
/// Trace ids pass through the JSON parser's f64, so ids that differ only
/// in their low bits can share a group; spans that do not overlap in time
/// are unaffected.
pub fn add_self_times(spans: &[JsonValue], acc: &mut SelfTimes) {
    let rank = |k: &str| {
        SPAN_KINDS
            .iter()
            .position(|&s| s == k)
            .unwrap_or(SPAN_KINDS.len())
    };
    let mut by_trace: BTreeMap<u64, Vec<(u64, u64, usize, String)>> = BTreeMap::new();
    for s in spans {
        let kind = s
            .get("kind")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string();
        let start = num(s, &["start_ns"]) as u64;
        let dur = num(s, &["dur_ns"]) as u64;
        let id = num(s, &["trace_id"]) as u64;
        by_trace
            .entry(id)
            .or_default()
            .push((start, dur, rank(&kind), kind));
    }
    for mut group in by_trace.into_values() {
        // Outer spans first: earlier start, then longer, then outer kind.
        group.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
        let mut child_ns = vec![0u64; group.len()];
        let mut twin_of: Vec<Option<usize>> = vec![None; group.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..group.len() {
            let (start, dur) = (group[i].0, group[i].1);
            while let Some(&top) = stack.last() {
                if start + dur <= group[top].0 + group[top].1 {
                    break;
                }
                stack.pop();
            }
            match stack.last() {
                Some(&top) if (group[top].0, group[top].1) == (start, dur) => {
                    twin_of[i] = Some(top)
                }
                Some(&parent) => {
                    let mut p = Some(parent);
                    while let Some(x) = p {
                        child_ns[x] += dur;
                        p = twin_of[x];
                    }
                }
                None => {}
            }
            stack.push(i);
        }
        for (i, (_, dur, _, kind)) in group.iter().enumerate() {
            let e = acc.entry(kind.clone()).or_insert((0.0, 0));
            e.0 += dur.saturating_sub(child_ns[i]) as f64;
            e.1 += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, kind: &str, start: u64, dur: u64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"trace_id":{id},"kind":"{kind}","start_ns":{start},"dur_ns":{dur}}}"#
        ))
        .expect("valid span JSON")
    }

    #[test]
    fn self_time_subtracts_nested_spans_and_keeps_twins_whole() {
        let spans = [
            span(1, "batch_exec", 100, 50),
            span(1, "store_op", 100, 50),
            span(1, "section", 110, 20),
            span(1, "htm_attempt", 112, 5),
            span(2, "queue_wait", 0, 7),
        ];
        let mut acc = SelfTimes::new();
        add_self_times(&spans, &mut acc);
        assert_eq!(acc["batch_exec"], (30.0, 1));
        assert_eq!(acc["store_op"], (30.0, 1));
        assert_eq!(acc["section"], (15.0, 1));
        assert_eq!(acc["htm_attempt"], (5.0, 1));
        assert_eq!(acc["queue_wait"], (7.0, 1));
    }
}
