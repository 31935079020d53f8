//! Closed-loop load generator with an exact per-connection oracle.
//!
//! Connection `c` owns the keys whose id is `≡ c (mod 2)`, so nothing but
//! its own acknowledged writes changes them. Each connection keeps a
//! model of those keys; every response is checked against the answer the
//! model predicts at submit time. The server answers a connection's
//! requests in submission order and runs same-key requests in that order,
//! which makes the prediction exact at any pipeline depth.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gocc_loadgen::zipf::Zipf;
use gocc_telemetry::SplitMix64;
use gocc_wire::{decode_response, encode_request, FrameBuf, Request, Response};

/// Connections (and client threads) driving every workload.
pub const CONNS: usize = 2;
/// Zipf skew of the key choice.
const ZIPF_S: f64 = 0.99;
/// SCAN page size.
const SCAN_LIMIT: u32 = 64;
/// Requests in flight per connection while preloading and reading back.
const BULK_DEPTH: usize = 32;
/// A response slower than this is counted as unanswered.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One workload's traffic shape.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Requests outstanding per connection.
    pub depth: usize,
    /// GET share of requests, in percent; writes split SET:DEL:INCR 6:1:1.
    pub read_pct: u64,
    /// Distinct keys, split evenly between the connections.
    pub keys: usize,
    /// One SCAN every this many requests (0 = none; depth 1 only, where
    /// no write of the scanning connection is in flight).
    pub scan_every: u64,
}

/// The key table shared by every connection.
pub struct Keys {
    names: Vec<Vec<u8>>,
    /// Store hash (`fnv1a`) of each key → key id, to read SCAN pages.
    by_hash: HashMap<u64, u32>,
}

impl Keys {
    pub fn new(count: usize) -> Keys {
        let names: Vec<Vec<u8>> = (0..count)
            .map(|i| format!("key:{i:08}").into_bytes())
            .collect();
        let by_hash = names
            .iter()
            .enumerate()
            .map(|(i, k)| (gocc_txds::fnv1a(k), i as u32))
            .collect();
        Keys { names, by_hash }
    }

    fn name(&self, conn: usize, slot: usize) -> &[u8] {
        &self.names[slot * CONNS + conn]
    }

    /// Keys owned by each connection.
    pub fn slots(&self) -> usize {
        self.names.len() / CONNS
    }
}

/// One data request, addressed by the connection's key slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get(usize),
    Set(usize, u64),
    Del(usize),
    Incr(usize, u64),
    Scan,
}

/// Latency class of an op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Get,
    Write,
    Scan,
}

impl Op {
    pub fn class(self) -> Class {
        match self {
            Op::Get(_) => Class::Get,
            Op::Scan => Class::Scan,
            _ => Class::Write,
        }
    }

    fn slot(self) -> Option<usize> {
        match self {
            Op::Get(s) | Op::Set(s, _) | Op::Del(s) | Op::Incr(s, _) => Some(s),
            Op::Scan => None,
        }
    }
}

/// The response the model predicts for a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Value(Option<u64>),
    Done,
    Deleted(bool),
    Counter(u64),
    /// Owned keys on the page must match the model when it arrives.
    Scan,
    /// The key's state is unknown after an earlier failed write.
    Any,
}

/// How one response compared with its prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The server answered, but not what the model predicts.
    Wrong,
    /// An error, refusal or undecodable answer.
    Failed,
}

/// One connection's model of the keys it owns.
#[derive(Clone, Debug)]
pub struct Oracle {
    conn: usize,
    vals: Vec<Option<u64>>,
    /// Keys whose last write failed: the write may or may not have run.
    tainted: Vec<bool>,
}

impl Oracle {
    pub fn new(conn: usize, slots: usize) -> Oracle {
        Oracle {
            conn,
            vals: vec![None; slots],
            tainted: vec![false; slots],
        }
    }

    /// Applies `op` to the model and returns the answer it predicts.
    pub fn submit(&mut self, op: Op) -> Expect {
        let Some(slot) = op.slot() else {
            return Expect::Scan;
        };
        let tainted = self.tainted[slot];
        let v = &mut self.vals[slot];
        let expect = match op {
            Op::Get(_) => Expect::Value(*v),
            Op::Set(_, value) => {
                *v = Some(value);
                Expect::Done
            }
            Op::Del(_) => {
                let existed = v.is_some();
                *v = None;
                Expect::Deleted(existed)
            }
            Op::Incr(_, delta) => {
                let new = v.unwrap_or(0).wrapping_add(delta);
                *v = Some(new);
                Expect::Counter(new)
            }
            Op::Scan => unreachable!("handled above"),
        };
        if tainted {
            // A blind SET or DEL re-establishes the key; anything else
            // stays unknown until one does.
            if let Op::Set(..) | Op::Del(_) = op {
                self.tainted[slot] = false;
            }
            return Expect::Any;
        }
        expect
    }

    /// Checks one response against its prediction.
    pub fn check(&mut self, op: Op, expect: Expect, resp: &Response<'_>, keys: &Keys) -> Verdict {
        let verdict = match (expect, resp) {
            (Expect::Value(v), Response::Value { found, value }) => {
                ok_if(*found == v.is_some() && *value == v.unwrap_or(0))
            }
            (Expect::Done, Response::Done) => Verdict::Ok,
            (Expect::Deleted(e), Response::Deleted { existed }) => ok_if(*existed == e),
            (Expect::Counter(c), Response::Counter { value }) => ok_if(*value == c),
            (Expect::Scan, Response::Entries { pairs }) => self.check_page(pairs, keys),
            (
                Expect::Any,
                Response::Value { .. }
                | Response::Done
                | Response::Deleted { .. }
                | Response::Counter { .. },
            ) => Verdict::Ok,
            (
                _,
                Response::Error { .. }
                | Response::Overloaded { .. }
                | Response::DeadlineExceeded
                | Response::NotPrimary { .. },
            ) => Verdict::Failed,
            _ => Verdict::Wrong,
        };
        if verdict == Verdict::Failed && op.class() == Class::Write {
            if let Some(slot) = op.slot() {
                self.tainted[slot] = true;
            }
        }
        verdict
    }

    fn check_page(&self, pairs: &[(u64, u64)], keys: &Keys) -> Verdict {
        if pairs.len() > SCAN_LIMIT as usize {
            return Verdict::Wrong;
        }
        for &(hash, value) in pairs {
            let Some(&id) = keys.by_hash.get(&hash) else {
                return Verdict::Wrong;
            };
            let (slot, owner) = (id as usize / CONNS, id as usize % CONNS);
            if owner == self.conn && !self.tainted[slot] && self.vals[slot] != Some(value) {
                return Verdict::Wrong;
            }
        }
        Verdict::Ok
    }

    pub fn slots(&self) -> usize {
        self.vals.len()
    }
}

/// The checker must flag a wrong value before any number is trusted:
/// stores a value, then feeds the oracle a read that answers another.
pub fn oracle_catches_wrong_values() -> bool {
    let keys = Keys::new(CONNS * 4);
    let mut o = Oracle::new(0, keys.slots());
    let set = Op::Set(1, 7);
    let e = o.submit(set);
    let stored = o.check(set, e, &Response::Done, &keys) == Verdict::Ok;
    let get = Op::Get(1);
    let e = o.submit(get);
    let wrong = Response::Value {
        found: true,
        value: 8,
    };
    stored && o.check(get, e, &wrong, &keys) == Verdict::Wrong
}

fn ok_if(cond: bool) -> Verdict {
    if cond {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

/// Seeded request stream of one connection.
pub struct OpGen<'a> {
    rng: SplitMix64,
    zipf: &'a Zipf,
    shape: Shape,
    issued: u64,
}

impl<'a> OpGen<'a> {
    pub fn new(seed: u64, conn: usize, zipf: &'a Zipf, shape: Shape) -> OpGen<'a> {
        OpGen {
            rng: conn_rng(seed, conn, 1),
            zipf,
            shape,
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        if self.shape.scan_every > 0 && self.issued.is_multiple_of(self.shape.scan_every) {
            return Op::Scan;
        }
        let slot = self.zipf.sample(&mut self.rng);
        if self.rng.below(100) < self.shape.read_pct {
            return Op::Get(slot);
        }
        match self.rng.below(8) {
            0..=5 => Op::Set(slot, self.rng.next_u64()),
            6 => Op::Del(slot),
            _ => Op::Incr(slot, 1 + self.rng.below(1000)),
        }
    }
}

/// Independent stream `stream` of connection `conn` under `seed`.
fn conn_rng(seed: u64, conn: usize, stream: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ (stream << 32) ^ conn as u64);
    SplitMix64::new(mix.next_u64())
}

/// Builds the shared Zipf sampler over one connection's key slots.
pub fn zipf_for(keys: &Keys) -> Zipf {
    Zipf::new(keys.slots(), ZIPF_S)
}

/// Failure counts of a phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Error / refusal responses and client-side I/O errors.
    pub errors: u64,
    /// Answers that disagree with the oracle.
    pub wrong: u64,
    /// Requests still in flight when the connection failed.
    pub unanswered: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong + self.unanswered
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.unanswered += o.unanswered;
    }
}

/// Opens one benchmark connection.
pub fn connect(port: u16) -> io::Result<TcpStream> {
    let s = TcpStream::connect(("127.0.0.1", port))?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(s)
}

struct Pending {
    op: Op,
    expect: Expect,
    t0: Instant,
}

/// Bytes of each stream a [`Capture`] keeps.
const CAPTURE_BYTES: usize = 1 << 20;

/// The first request and response bytes of a connection, for the wire
/// rung.
#[derive(Default)]
pub struct Capture {
    pub requests: Vec<u8>,
    pub responses: Vec<u8>,
}

/// Runs a closed loop on `stream`: keeps `depth` requests outstanding,
/// drawing each from `next` until it returns `None`, then drains. Every
/// response is checked by `oracle`; `done` sees each completed request
/// with its submit and completion times.
pub fn pump(
    stream: &mut TcpStream,
    depth: usize,
    oracle: &mut Oracle,
    keys: &Keys,
    mut next: impl FnMut() -> Option<Op>,
    mut done: impl FnMut(Op, Instant, Instant),
    mut capture: Option<&mut Capture>,
) -> Tally {
    let mut tally = Tally::default();
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(depth);
    let mut out = Vec::with_capacity(depth * 32);
    let mut frames = FrameBuf::new();
    let mut rbuf = vec![0u8; 64 * 1024];
    let mut issuing = true;
    loop {
        while issuing && inflight.len() < depth {
            let Some(op) = next() else {
                issuing = false;
                break;
            };
            let expect = oracle.submit(op);
            encode_request(&request(op, oracle.conn, keys), &mut out);
            inflight.push_back(Pending {
                op,
                expect,
                t0: Instant::now(),
            });
            tally.attempted += 1;
        }
        if !out.is_empty() {
            if let Some(c) = capture.as_deref_mut() {
                if c.requests.len() < CAPTURE_BYTES {
                    c.requests.extend_from_slice(&out);
                }
            }
            if stream.write_all(&out).is_err() {
                break;
            }
            out.clear();
        }
        if inflight.is_empty() {
            return tally;
        }
        let n = match stream.read(&mut rbuf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if let Some(c) = capture.as_deref_mut() {
            if c.responses.len() < CAPTURE_BYTES {
                c.responses.extend_from_slice(&rbuf[..n]);
            }
        }
        frames.extend(&rbuf[..n]);
        loop {
            let body = match frames.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(_) => {
                    tally.unanswered += inflight.len() as u64;
                    return tally;
                }
            };
            let t1 = Instant::now();
            let Some(p) = inflight.pop_front() else {
                // An answer nobody asked for.
                tally.wrong += 1;
                return tally;
            };
            match decode_response(body) {
                Ok(resp) => match oracle.check(p.op, p.expect, &resp, keys) {
                    Verdict::Ok => done(p.op, p.t0, t1),
                    Verdict::Wrong => tally.wrong += 1,
                    Verdict::Failed => tally.errors += 1,
                },
                Err(_) => tally.errors += 1,
            }
        }
    }
    tally.unanswered += inflight.len() as u64;
    tally
}

/// The wire request for `op` on connection `conn`'s keys.
pub fn request(op: Op, conn: usize, keys: &Keys) -> Request<'_> {
    let key = |slot| keys.name(conn, slot);
    match op {
        Op::Get(s) => Request::Get { key: key(s) },
        Op::Set(s, value) => Request::Set {
            key: key(s),
            value,
            ttl: 0,
        },
        Op::Del(s) => Request::Del { key: key(s) },
        Op::Incr(s, delta) => Request::Incr { key: key(s), delta },
        Op::Scan => Request::Scan { limit: SCAN_LIMIT },
    }
}

/// Sets every key `conn` owns to a seeded value.
pub fn preload(
    port: u16,
    conn: usize,
    seed: u64,
    keys: &Keys,
    oracle: &mut Oracle,
) -> io::Result<Tally> {
    let mut stream = connect(port)?;
    let mut rng = conn_rng(seed, conn, 2);
    let mut slots = 0..keys.slots();
    Ok(pump(
        &mut stream,
        BULK_DEPTH,
        oracle,
        keys,
        || slots.next().map(|s| Op::Set(s, rng.next_u64())),
        |_, _, _| {},
        None,
    ))
}

/// Reads every key `oracle` owns from `port` and checks it.
pub fn read_back(port: u16, keys: &Keys, oracle: &mut Oracle) -> io::Result<Tally> {
    let mut stream = connect(port)?;
    let mut slots = 0..oracle.slots();
    Ok(pump(
        &mut stream,
        BULK_DEPTH,
        oracle,
        keys,
        || slots.next().map(Op::Get),
        |_, _, _| {},
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_flags_a_wrong_value() {
        assert!(oracle_catches_wrong_values());
    }

    #[test]
    fn oracle_tracks_every_verb() {
        let keys = Keys::new(CONNS * 4);
        let mut o = Oracle::new(1, keys.slots());
        let step = |o: &mut Oracle, op: Op, resp: Response<'_>| {
            let e = o.submit(op);
            o.check(op, e, &resp, &keys)
        };
        assert_eq!(
            step(
                &mut o,
                Op::Get(0),
                Response::Value {
                    found: false,
                    value: 0
                }
            ),
            Verdict::Ok
        );
        assert_eq!(
            step(&mut o, Op::Incr(0, 5), Response::Counter { value: 5 }),
            Verdict::Ok
        );
        assert_eq!(
            step(&mut o, Op::Incr(0, 5), Response::Counter { value: 11 }),
            Verdict::Wrong
        );
        assert_eq!(
            step(&mut o, Op::Del(0), Response::Deleted { existed: true }),
            Verdict::Ok
        );
        assert_eq!(
            step(&mut o, Op::Del(0), Response::Deleted { existed: true }),
            Verdict::Wrong
        );
        assert_eq!(
            step(
                &mut o,
                Op::Get(0),
                Response::Value {
                    found: true,
                    value: 10
                }
            ),
            Verdict::Wrong
        );
    }

    #[test]
    fn scan_pages_are_checked_for_owned_keys_only() {
        let keys = Keys::new(CONNS * 4);
        let mut o = Oracle::new(0, keys.slots());
        let e = o.submit(Op::Set(2, 9));
        assert_eq!(
            o.check(Op::Set(2, 9), e, &Response::Done, &keys),
            Verdict::Ok
        );
        let own = gocc_txds::fnv1a(keys.name(0, 2));
        let other = gocc_txds::fnv1a(keys.name(1, 2));
        let page = |pairs| Response::Entries { pairs };
        let e = o.submit(Op::Scan);
        assert_eq!(
            o.check(Op::Scan, e, &page(vec![(own, 9), (other, 1)]), &keys),
            Verdict::Ok
        );
        let e = o.submit(Op::Scan);
        assert_eq!(
            o.check(Op::Scan, e, &page(vec![(own, 8)]), &keys),
            Verdict::Wrong
        );
    }

    #[test]
    fn a_failed_write_stops_checks_until_the_key_is_rewritten() {
        let keys = Keys::new(CONNS * 4);
        let mut o = Oracle::new(0, keys.slots());
        let e = o.submit(Op::Set(3, 1));
        assert_eq!(
            o.check(Op::Set(3, 1), e, &Response::Overloaded { state: 2 }, &keys),
            Verdict::Failed
        );
        let e = o.submit(Op::Get(3));
        assert_eq!(
            o.check(
                Op::Get(3),
                e,
                &Response::Value {
                    found: false,
                    value: 0
                },
                &keys
            ),
            Verdict::Ok
        );
        let e = o.submit(Op::Set(3, 4));
        assert_eq!(
            o.check(Op::Set(3, 4), e, &Response::Done, &keys),
            Verdict::Ok
        );
        let e = o.submit(Op::Get(3));
        assert_eq!(
            o.check(
                Op::Get(3),
                e,
                &Response::Value {
                    found: true,
                    value: 5
                },
                &keys
            ),
            Verdict::Wrong
        );
    }
}
