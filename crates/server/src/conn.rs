//! Per-connection state machine: non-blocking read → frame → admit →
//! execute → non-blocking write, with error isolation, deadline
//! enforcement and slow-client eviction.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::raw::c_short;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gocc_faultplane::{LoadFault, TransportFaultPlan};
use gocc_telemetry::trace;
use gocc_telemetry::{Span, SpanKind};
use gocc_wire::{
    decode_repl_request, decode_request_any, encode_response, is_repl_request, FaultyStream,
    FrameBuf, ReplRequest, Request, Response, WireError, MAX_FRAME,
};
use gocc_workloads::gocache::BatchOp;
use gocc_workloads::Engine;

use crate::overload::{classify, VerbClass};
use crate::readiness::{POLLIN, POLLOUT};
use crate::repl::{pump_repl_out, ReplSub};
use crate::stats::verb_index;
use crate::store::BatchOutcome;
use crate::{ReplWaitError, ServerState, WorkerCtx};

/// Cap on frames executed per pump so one pipelining client cannot starve
/// a worker's other connections.
const MAX_FRAMES_PER_PUMP: usize = 256;

/// Span cap applied when a TRACE request asks for `max: 0` ("everything"):
/// a full 8K-slot ring rendered to JSON can exceed [`MAX_FRAME`], so the
/// open-ended form drains in bounded bites instead of erroring.
const TRACE_DEFAULT_MAX: u32 = 4096;

/// What one pump pass decided.
pub(crate) enum PumpOutcome {
    /// Keep the connection. `backlog` means it holds work no socket
    /// readiness will announce (buffered frames past the per-pump cap, a
    /// replication backlog whose output already drained), so its owner
    /// must pass again before blocking in `poll(2)`.
    Alive { backlog: bool },
    /// Remove the connection.
    Close,
}

/// One admitted-but-unanswered request in the connection's current decode
/// batch. Responses for the whole batch are encoded together, in arrival
/// order, once the batch flushes — that is what keeps the wire strictly
/// in order even though execution is grouped by shard.
struct PendingReq {
    /// Flight-recorder id (0 = unsampled).
    trace_id: u64,
    /// When this request's bytes arrived (deadline budgets run from here).
    arrival: Instant,
    /// Client deadline budget, if any.
    deadline_us: Option<u32>,
    /// Verb index, for the per-request `StoreOp` span payload.
    verb: usize,
    state: PendingState,
}

enum PendingState {
    /// Execute through the batched store path.
    Exec {
        /// Owning shard (routes the request into its shard-group).
        shard: usize,
        op: BatchOp,
    },
    /// Answer decided at admission (shed, expired deadline, fenced
    /// primary); held unencoded until the batch flushes so it occupies
    /// its in-order response slot.
    Ready(Response<'static>),
    /// Replica write redirect — owns the hint string because
    /// `Response::NotPrimary` borrows its payload.
    NotPrimary(String),
}

/// One client connection, owned by exactly one thread at a time — a
/// worker, or the repl-out thread once it subscribes via REPL_HELLO.
///
/// The stream is wrapped in a [`FaultyStream`] so a configured transport
/// fault plan can perturb this connection's reads and writes; with no plan
/// the wrapper is pass-through.
pub(crate) struct Conn {
    stream: FaultyStream<TcpStream>,
    inbuf: FrameBuf,
    outbuf: Vec<u8>,
    outpos: usize,
    last_write_progress: Instant,
    /// When the oldest unprocessed bytes arrived: set on a read into an
    /// empty input buffer, cleared once the buffer drains. Deadline
    /// budgets are measured from here — conservative for pipelined
    /// backlogs (later frames in the same burst inherit the burst's
    /// arrival time, so a deadline can only fire early, never late).
    ingest_at: Option<Instant>,
    /// Stop reading; flush what is queued, then close.
    closing: bool,
    /// Set once this connection sent REPL_HELLO: it is a replica's
    /// replication stream, and the pump additionally drains the feed's
    /// batches for this subscriber.
    repl: Option<ReplSub>,
    /// Reusable scratch for the pump's decode batch (capacity persists
    /// across pump passes; always drained empty before the pass returns).
    batch: Vec<PendingReq>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, fault_plan: Option<Arc<TransportFaultPlan>>) -> Self {
        Conn {
            stream: FaultyStream::maybe(stream, fault_plan),
            inbuf: FrameBuf::new(),
            outbuf: Vec::new(),
            outpos: 0,
            last_write_progress: Instant::now(),
            ingest_at: None,
            closing: false,
            repl: None,
            batch: Vec::new(),
        }
    }

    /// Connection teardown: release the feed subscription, if any, so a
    /// dead replica stops counting toward `min_acks` immediately instead
    /// of waiting out the lease.
    pub(crate) fn on_close(&self, state: &ServerState) {
        if let (Some(sub), Some(feed)) = (&self.repl, state.repl_feed()) {
            feed.unsubscribe(sub.id);
        }
    }

    /// Whether this connection subscribed as a replication stream
    /// (sent REPL_HELLO). Such connections are migrated off the worker
    /// onto the dedicated repl-out thread.
    pub(crate) fn is_repl_sub(&self) -> bool {
        self.repl.is_some()
    }

    pub(crate) fn has_pending_output(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    /// The socket, for the owner's poll set.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.get_ref().as_raw_fd()
    }

    /// The readiness the next pump can use: `POLLIN` unless the
    /// connection is closing or holds `recv_high_water` unprocessed bytes
    /// (the same test that gates the pump's reads), `POLLOUT` while
    /// response bytes are pending.
    pub(crate) fn interest(&self, recv_high_water: usize) -> c_short {
        let mut events = 0;
        if !self.closing && self.inbuf.pending() < recv_high_water {
            events |= POLLIN;
        }
        if self.has_pending_output() {
            events |= POLLOUT;
        }
        events
    }

    /// When the pump next has time-driven work on this connection: the
    /// slow-client eviction while output is pending, and a subscribed
    /// stream's next heartbeat.
    pub(crate) fn deadline(&self, state: &ServerState) -> Option<Instant> {
        let evict = self
            .has_pending_output()
            .then(|| self.last_write_progress + state.config.write_timeout);
        let beat = match &self.repl {
            Some(sub) if !self.closing && !state.is_replica() => {
                Some(sub.next_beat(state.config.repl_lease))
            }
            _ => None,
        };
        evict.into_iter().chain(beat).min()
    }

    /// Shutdown-drain helper: push pending bytes; bytes that can no
    /// longer be delivered are dropped, so the drain stops waiting on
    /// them.
    pub(crate) fn flush_only(&mut self) {
        if self.flush_inner().is_err() {
            self.outbuf.clear();
            self.outpos = 0;
        }
    }

    /// One cooperative scheduling quantum for this connection.
    pub(crate) fn pump(
        &mut self,
        engine: &Engine<'_>,
        state: &ServerState,
        wctx: &mut WorkerCtx,
    ) -> PumpOutcome {
        // 1. Drain queued response bytes first — a slow client must not
        //    hold buffered responses hostage while we keep reading.
        if self.flush_inner().is_err() {
            return PumpOutcome::Close;
        }
        if self.has_pending_output()
            && self.last_write_progress.elapsed() > state.config.write_timeout
        {
            state.counters.note_slow_drop();
            return PumpOutcome::Close;
        }

        // 2. Ingest bytes — unless this connection already holds more
        //    unprocessed input than the high-water mark. Not reading is
        //    the memory bound: the kernel socket buffer fills and TCP
        //    pushes back on the client.
        let mut peer_eof = false;
        if !self.closing && self.inbuf.pending() < state.config.recv_high_water {
            let mut chunk = [0u8; 4096];
            for _ in 0..16 {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        if self.inbuf.pending() == 0 {
                            self.ingest_at = Some(Instant::now());
                        }
                        self.inbuf.extend(&chunk[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return PumpOutcome::Close,
                }
            }
        }

        // 3. Admit and execute complete frames.
        let mut backlog = !self.closing && self.process_frames(engine, state, wctx);
        if self.inbuf.pending() == 0 {
            self.ingest_at = None;
        }

        // 3b. If this is a subscribed replication stream, drain the feed:
        // snapshot resyncs, incremental batches, heartbeats. A promoted-
        // away (replica) node stops pumping — its feed is a sink, not a
        // source.
        let mut feed_saturated = false;
        if !self.closing && !state.is_replica() {
            if let (Some(sub), Some(feed)) = (&mut self.repl, state.repl_feed()) {
                feed_saturated = pump_repl_out(
                    sub,
                    feed,
                    &state.store,
                    engine,
                    &mut self.outbuf,
                    state.config.repl_lease,
                    state.epoch(),
                );
            }
        }

        // 4. Push out whatever step 3 produced.
        if self.flush_inner().is_err() {
            return PumpOutcome::Close;
        }
        // A feed backlog paused at the output high-water mark waits on
        // POLLOUT while bytes are pending; once they all went out, only
        // another pass resumes it.
        backlog |= feed_saturated && !self.has_pending_output();

        if (self.closing || peer_eof) && !self.has_pending_output() {
            return PumpOutcome::Close;
        }
        if peer_eof {
            // Half-closed with responses still queued: flush, then close.
            self.closing = true;
        }
        PumpOutcome::Alive { backlog }
    }

    /// Decodes, admits and executes buffered frames.
    ///
    /// Single-key data verbs are not executed one at a time: each is
    /// admitted into a pending batch, and the batch executes with **one**
    /// critical section per shard-group when it flushes — at the pump cap,
    /// at end of buffered input, or before any frame that cannot join a
    /// batch (control verbs, SCAN, replication verbs, framing errors).
    /// Responses are encoded at flush time in arrival order, so the wire
    /// ordering is identical to sequential execution.
    ///
    /// A decode error sends one final `Error` response and marks the
    /// connection closing. An *oversized* frame is the one framing error
    /// that does not cost the connection: `FrameBuf` skips its body and
    /// resynchronizes, so the response is an `Error` and the conversation
    /// continues. Shed and deadline-expired requests answer with their
    /// dedicated retriable responses and also keep the connection.
    ///
    /// Returns whether the pass stopped at [`MAX_FRAMES_PER_PUMP`] with
    /// input still buffered.
    fn process_frames(
        &mut self,
        engine: &Engine<'_>,
        state: &ServerState,
        wctx: &mut WorkerCtx,
    ) -> bool {
        let mut batch = std::mem::take(&mut self.batch);
        let mut capped = true;
        for _ in 0..MAX_FRAMES_PER_PUMP {
            if self.closing {
                capped = false;
                break;
            }
            let arrival = self.ingest_at.unwrap_or_else(Instant::now);
            let Conn {
                inbuf,
                outbuf,
                closing,
                repl,
                ..
            } = self;
            match inbuf.next_frame() {
                Ok(None) => {
                    capped = false;
                    break;
                }
                Ok(Some(body)) => {
                    // Replication verbs bypass admission entirely: a
                    // brownout must never shed the ack stream that keeps
                    // the primary's lease (and its replicas) alive. They
                    // still flush the batch first — a REPL frame between
                    // two data frames must not reorder their responses.
                    if is_repl_request(body) {
                        flush_batch(engine, state, wctx, outbuf, &mut batch);
                        handle_repl_frame(engine, state, outbuf, repl, closing, body);
                        continue;
                    }
                    wctx.frames_seen += 1;
                    // Flight recorder: the sampling decision is made once
                    // per request, here at frame decode, and the id rides
                    // the worker's thread-local through admission, the
                    // engine, and the HTM session until the frame is done.
                    let decode_t0 = if trace::tracing_active() {
                        trace::now_ns()
                    } else {
                        0
                    };
                    let body_len = body.len() as u64;
                    match decode_request_any(body) {
                        Ok(frame) => {
                            state.counters.note_request(&frame.req);
                            let trace_id = state.rt.tracer().begin_request();
                            if trace_id != 0 {
                                let now = trace::now_ns();
                                state.rt.tracer().push(Span {
                                    trace_id,
                                    kind: SpanKind::WireDecode,
                                    start_ns: decode_t0,
                                    dur_ns: now.saturating_sub(decode_t0),
                                    a: body_len,
                                    b: verb_index(&frame.req) as u64,
                                });
                                // How long the frame's bytes sat in the
                                // input buffer before this pump pass
                                // reached them.
                                let wait_ns = arrival.elapsed().as_nanos() as u64;
                                state.rt.tracer().push(Span {
                                    trace_id,
                                    kind: SpanKind::QueueWait,
                                    start_ns: now.saturating_sub(wait_ns),
                                    dur_ns: wait_ns,
                                    a: wctx.frames_seen,
                                    b: 0,
                                });
                            }
                            match gather_pending(
                                state,
                                wctx,
                                arrival,
                                &frame.req,
                                frame.deadline_us,
                                trace_id,
                            ) {
                                Some(pending) => batch.push(pending),
                                None => {
                                    // Control verb or SCAN: flush what is
                                    // pending (in-order responses), then
                                    // run it on the sequential path.
                                    flush_batch(engine, state, wctx, outbuf, &mut batch);
                                    if trace_id != 0 {
                                        trace::set_current(trace_id);
                                    }
                                    if !execute_admitted(
                                        engine,
                                        state,
                                        wctx,
                                        outbuf,
                                        arrival,
                                        &frame.req,
                                        frame.deadline_us,
                                    ) {
                                        *closing = true;
                                    }
                                    if trace_id != 0 {
                                        trace::clear_current();
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            flush_batch(engine, state, wctx, outbuf, &mut batch);
                            state.counters.note_malformed();
                            let message = format!("malformed frame: {e}");
                            encode_response(&Response::Error { message: &message }, outbuf);
                            *closing = true;
                        }
                    }
                }
                Err(WireError::TooLarge) => {
                    // Oversized frame: FrameBuf discards the body and
                    // resynchronizes, so answer and keep the connection.
                    flush_batch(engine, state, wctx, outbuf, &mut batch);
                    state.counters.note_oversized();
                    encode_response(
                        &Response::Error {
                            message: "frame exceeds size limit",
                        },
                        outbuf,
                    );
                }
                Err(e) => {
                    // Corrupt length prefix: there is no resynchronizing.
                    flush_batch(engine, state, wctx, outbuf, &mut batch);
                    state.counters.note_malformed();
                    let message = format!("unrecoverable framing error: {e}");
                    encode_response(&Response::Error { message: &message }, outbuf);
                    *closing = true;
                }
            }
        }
        flush_batch(engine, state, wctx, &mut self.outbuf, &mut batch);
        self.batch = batch;
        capped && self.inbuf.pending() > 0
    }

    /// Writes pending response bytes until done or the socket is full;
    /// an error means the connection is dead.
    fn flush_inner(&mut self) -> io::Result<()> {
        loop {
            if !self.has_pending_output() {
                self.outbuf.clear();
                self.outpos = 0;
                return Ok(());
            }
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outpos += n;
                    self.last_write_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The admit → deadline-check pipeline for one decoded request, producing
/// a batch entry instead of executing. Returns `None` for verbs that
/// cannot batch (control plane, SCAN) — the caller flushes and falls back
/// to [`execute_admitted`]. For batchable verbs the per-request checks
/// run here, at the same point in the request's life as on the sequential
/// path: deadline pre-check, admission, replica redirect, fencing. A
/// rejected request still returns `Some` — its decided response rides the
/// batch as [`PendingState::Ready`] so it answers in arrival order.
fn gather_pending(
    state: &ServerState,
    wctx: &mut WorkerCtx,
    arrival: Instant,
    req: &Request<'_>,
    deadline_us: Option<u32>,
    trace_id: u64,
) -> Option<PendingReq> {
    let (shard, op) = state.store.batch_op_for(req)?;
    let verb = verb_index(req);
    let pending = |state: PendingState| PendingReq {
        trace_id,
        arrival,
        deadline_us,
        verb,
        state,
    };

    // Deadline pre-check: a request whose budget expired while it queued
    // is answered without ever reaching the engine. (Batchable verbs are
    // never Control class, so no exemption applies.)
    if let Some(budget_us) = deadline_us {
        if expired(arrival, budget_us) {
            state.counters.note_deadline_pre();
            return Some(pending(PendingState::Ready(Response::DeadlineExceeded)));
        }
    }

    // Admission: same brownout decision, per request, before the request
    // can join a batch — a batch never smuggles work past the controller.
    let t0 = Instant::now();
    let t0_ns = if trace_id != 0 { trace::now_ns() } else { 0 };
    let class = classify(req);
    if let Err(cause) = state
        .brownout
        .admit(class, wctx.frames_seen, state.config.queue_limit)
    {
        let shed_ns = t0.elapsed().as_nanos() as u64;
        state.counters.note_shed(wctx.worker, cause, shed_ns);
        if trace_id != 0 {
            state.rt.tracer().push(Span {
                trace_id,
                kind: SpanKind::Shed,
                start_ns: t0_ns,
                dur_ns: shed_ns,
                a: cause.index() as u64,
                b: state.brownout.state() as u8 as u64,
            });
        }
        return Some(pending(PendingState::Ready(Response::Overloaded {
            state: state.brownout.state() as u8,
        })));
    }

    let is_write = !matches!(op, BatchOp::Get { .. });
    // Replicas serve reads; writes are redirected to the primary.
    if is_write && state.is_replica() {
        return Some(pending(PendingState::NotPrimary(state.upstream_hint())));
    }
    // Fencing pre-check, per request: a fenced primary must not apply new
    // writes, including ones arriving mid-pipeline.
    if is_write && !state.is_replica() {
        if let Some(feed) = state.repl_feed() {
            if feed.fenced() {
                feed.counters().note_fenced_reject();
                return Some(pending(PendingState::Ready(Response::Error {
                    message: "primary fenced: insufficient live replicas",
                })));
            }
        }
    }
    Some(pending(PendingState::Exec { shard, op }))
}

/// Executes and answers the pending batch: one critical section per
/// shard-group via [`crate::ShardedStore::execute_batch`], then the WAL /
/// replication / deadline epilogue per request, then every response
/// encoded in arrival order. No-op on an empty batch. Mirrors the data-
/// verb arm of [`execute_admitted`] exactly — same counters, same spans
/// (plus a `BatchExec` span per shard-group), same error strings, same
/// ack-after-barrier ordering per record.
fn flush_batch(
    engine: &Engine<'_>,
    state: &ServerState,
    wctx: &mut WorkerCtx,
    outbuf: &mut Vec<u8>,
    batch: &mut Vec<PendingReq>,
) {
    if batch.is_empty() {
        return;
    }
    // Route the executable subset; rejected entries keep their slot in
    // `batch` and only participate in response encoding below.
    let mut routed: Vec<(usize, BatchOp)> = Vec::with_capacity(batch.len());
    let mut exec_idx: Vec<usize> = Vec::with_capacity(batch.len());
    for (i, p) in batch.iter().enumerate() {
        if let PendingState::Exec { shard, op } = p.state {
            routed.push((shard, op));
            exec_idx.push(i);
        }
    }
    let feed = if state.is_replica() {
        None
    } else {
        state.repl_feed()
    };
    let mut outcomes: Vec<BatchOutcome> = Vec::new();
    if !routed.is_empty() {
        // One fault draw per executed request, so injected SlowStore
        // rates match the sequential path request-for-request.
        if let Some(plan) = &state.config.load_plan {
            for _ in 0..routed.len() {
                if let Some(LoadFault::SlowStore(d)) = plan.draw_store(wctx.worker as u64) {
                    std::thread::sleep(d);
                }
            }
        }
        let wal = state.wal().map(|w| w.as_ref());
        outcomes = state
            .store
            .execute_batch(engine, &routed, wal, |shard, positions, run| {
                // The group's engine section runs under the first sampled
                // request's trace id, so Section/HtmAttempt spans attach
                // to a real request; the BatchExec span marks the whole
                // group and carries its size.
                let parent = positions
                    .iter()
                    .map(|&p| batch[exec_idx[p]].trace_id)
                    .find(|&id| id != 0)
                    .unwrap_or(0);
                let t0_ns = if parent != 0 { trace::now_ns() } else { 0 };
                let group_t0 = Instant::now();
                if parent != 0 {
                    trace::set_current(parent);
                }
                run();
                if parent != 0 {
                    trace::clear_current();
                }
                let group_ns = group_t0.elapsed().as_nanos() as u64;
                let n = positions.len() as u64;
                // Engine latency only feeds the brownout EWMA; the group's
                // cost is attributed evenly across its requests so the
                // controller sees the amortized per-request load.
                let per_req_ns = group_ns / n.max(1);
                for &p in positions {
                    let pr = &batch[exec_idx[p]];
                    wctx.lat_sum_ns += per_req_ns;
                    wctx.lat_count += 1;
                    state.counters.note_executed(wctx.worker, per_req_ns);
                    if pr.trace_id != 0 {
                        state.rt.tracer().push(Span {
                            trace_id: pr.trace_id,
                            kind: SpanKind::StoreOp,
                            start_ns: t0_ns,
                            dur_ns: group_ns,
                            a: pr.verb as u64,
                            b: 1,
                        });
                    }
                }
                if parent != 0 {
                    state.rt.tracer().push(Span {
                        trace_id: parent,
                        kind: SpanKind::BatchExec,
                        start_ns: t0_ns,
                        dur_ns: group_ns,
                        a: n,
                        b: u64::from(shard),
                    });
                }
                state.counters.note_batch(n);
            });
    }
    // Epilogue + response encode, in arrival order. The WAL wait and the
    // replication gate stay per-record: each mutation's ack still waits
    // for exactly its own barrier, same as sequentially.
    let mut outcome_iter = outcomes.into_iter();
    for p in batch.drain(..) {
        let out_start = outbuf.len();
        match p.state {
            PendingState::Ready(resp) => encode_response(&resp, outbuf),
            PendingState::NotPrimary(hint) => {
                encode_response(&Response::NotPrimary { hint: &hint }, outbuf);
            }
            PendingState::Exec { .. } => {
                let BatchOutcome {
                    mut resp,
                    staged,
                    ticket,
                } = outcome_iter.next().expect("one outcome per routed entry");
                // Ack-after-barrier: the response for a mutating verb is
                // not encoded until its WAL record is inside an fsynced
                // prefix.
                if let (Some(ticket), Some(wal)) = (ticket, state.wal()) {
                    let wait_t0 = if p.trace_id != 0 { trace::now_ns() } else { 0 };
                    let waited = wal.wait(ticket);
                    if p.trace_id != 0 {
                        state.rt.tracer().push(Span {
                            trace_id: p.trace_id,
                            kind: SpanKind::WalCommit,
                            start_ns: wait_t0,
                            dur_ns: trace::now_ns().saturating_sub(wait_t0),
                            a: ticket.number(),
                            b: 0,
                        });
                    }
                    if waited.is_err() {
                        resp = Response::Error {
                            message: "write-ahead log failed; write not durable",
                        };
                    }
                } else if let (Some(feed), Some(staged)) = (feed, staged.as_ref()) {
                    // No-WAL primary: the applied write is this
                    // deployment's durable prefix, so it enters the feed
                    // here.
                    feed.publish(staged.shard, std::slice::from_ref(staged));
                    state.wake_repl_out();
                }
                // Replication gate: the ack is withheld until enough
                // replicas confirmed this record's version.
                if let (Some(feed), Some(staged)) = (feed, staged.as_ref()) {
                    if !matches!(resp, Response::Error { .. }) {
                        match feed.wait_replicated(
                            staged.shard,
                            staged.seq,
                            state.config.repl_ack_timeout,
                        ) {
                            Ok(()) => {}
                            Err(ReplWaitError::Fenced) => {
                                resp = Response::Error {
                                    message: "primary fenced: write not acknowledged",
                                };
                            }
                            Err(ReplWaitError::Timeout) => {
                                resp = Response::Error {
                                    message: "replication timed out: write not acknowledged",
                                };
                            }
                        }
                    }
                }
                // Deadline post-check: effects are already applied (the
                // engine ran); only this request's response is replaced.
                let resp_t0 = if p.trace_id != 0 { trace::now_ns() } else { 0 };
                match p.deadline_us {
                    Some(budget_us) if expired(p.arrival, budget_us) => {
                        state.counters.note_deadline_post();
                        encode_response(&Response::DeadlineExceeded, outbuf);
                    }
                    _ => encode_response(&resp, outbuf),
                }
                if p.trace_id != 0 {
                    state.rt.tracer().push(Span {
                        trace_id: p.trace_id,
                        kind: SpanKind::ResponseWrite,
                        start_ns: resp_t0,
                        dur_ns: trace::now_ns().saturating_sub(resp_t0),
                        a: (outbuf.len() - out_start) as u64,
                        b: 0,
                    });
                }
            }
        }
    }
}

/// The admit → deadline-check → execute pipeline for one decoded request.
///
/// Returns `false` when the connection must start closing (SHUTDOWN).
/// Free function (not a method) so the borrow of `outbuf` stays disjoint
/// from the rest of the connection.
fn execute_admitted(
    engine: &Engine<'_>,
    state: &ServerState,
    wctx: &mut WorkerCtx,
    outbuf: &mut Vec<u8>,
    arrival: Instant,
    req: &Request<'_>,
    deadline_us: Option<u32>,
) -> bool {
    let t0 = Instant::now();
    let class = classify(req);
    let trace_id = trace::current();
    let t0_ns = if trace_id != 0 { trace::now_ns() } else { 0 };
    let out_start = outbuf.len();

    // Deadline pre-check: a request whose budget expired while it queued
    // is answered without ever reaching the engine.
    if let Some(budget_us) = deadline_us {
        if class != VerbClass::Control && expired(arrival, budget_us) {
            state.counters.note_deadline_pre();
            encode_response(&Response::DeadlineExceeded, outbuf);
            return true;
        }
    }

    // Admission: the brownout state and this pump pass's queue depth
    // decide. The whole reject path (classify + admit + encode) is
    // measured — the soak asserts its mean stays under 10 µs.
    if let Err(cause) = state
        .brownout
        .admit(class, wctx.frames_seen, state.config.queue_limit)
    {
        encode_response(
            &Response::Overloaded {
                state: state.brownout.state() as u8,
            },
            outbuf,
        );
        let shed_ns = t0.elapsed().as_nanos() as u64;
        state.counters.note_shed(wctx.worker, cause, shed_ns);
        if trace_id != 0 {
            state.rt.tracer().push(Span {
                trace_id,
                kind: SpanKind::Shed,
                start_ns: t0_ns,
                dur_ns: shed_ns,
                a: cause.index() as u64,
                b: state.brownout.state() as u8 as u64,
            });
        }
        return true;
    }

    // Start of the response-encode window: control verbs encode straight
    // from here; data verbs reset it after the store call.
    let mut resp_t0 = t0_ns;

    let keep_open = match req {
        Request::Stats => {
            let json = state.stats_json();
            // A stats document larger than a frame (giant telemetry
            // event trace) would trip the encoder's frame-size assert
            // — a network-reachable panic. Refuse it on just this
            // connection instead.
            if json.len() > MAX_FRAME - 8 {
                encode_response(
                    &Response::Error {
                        message: "stats document exceeds frame limit",
                    },
                    outbuf,
                );
            } else {
                encode_response(&Response::Stats { json: &json }, outbuf);
            }
            true
        }
        Request::Trace { max } => {
            let cap = if *max == 0 { TRACE_DEFAULT_MAX } else { *max };
            let json = state.trace_json(cap);
            // Same frame-size refusal as STATS: never feed the encoder a
            // document that would trip its size assert.
            if json.len() > MAX_FRAME - 8 {
                encode_response(
                    &Response::Error {
                        message: "trace document exceeds frame limit",
                    },
                    outbuf,
                );
            } else {
                encode_response(&Response::Trace { json: &json }, outbuf);
            }
            true
        }
        Request::Health => {
            encode_response(&state.health_response(), outbuf);
            true
        }
        Request::Flush => {
            // Durability barrier: returns once everything staged before it
            // is fsynced. Without a WAL the barrier is vacuous.
            let resp = match state.wal() {
                Some(wal) => match wal.flush() {
                    Ok(durable_lsn) => Response::Flushed { durable_lsn },
                    Err(_) => Response::Error {
                        message: "write-ahead log failed",
                    },
                },
                None => Response::Flushed { durable_lsn: 0 },
            };
            encode_response(&resp, outbuf);
            true
        }
        Request::Shutdown => {
            state.request_shutdown();
            encode_response(&Response::Bye, outbuf);
            false
        }
        data_verb => {
            let is_write = matches!(
                data_verb,
                Request::Set { .. }
                    | Request::Del { .. }
                    | Request::Incr { .. }
                    | Request::SetS { .. }
            );
            // Replicas serve reads; writes are redirected to the primary.
            // The replication stream is a replica's only writer, so its
            // shard versions stay exactly the primary's.
            if is_write && state.is_replica() {
                let hint = state.upstream_hint();
                encode_response(&Response::NotPrimary { hint: &hint }, outbuf);
                return true;
            }
            let feed = if state.is_replica() {
                None
            } else {
                state.repl_feed()
            };
            // Fencing pre-check: a primary that cannot currently reach
            // `min_acks` live replicas must not apply (much less ack) new
            // writes — a partitioned old primary goes read-only instead
            // of diverging.
            if is_write {
                if let Some(feed) = feed {
                    if feed.fenced() {
                        feed.counters().note_fenced_reject();
                        encode_response(
                            &Response::Error {
                                message: "primary fenced: insufficient live replicas",
                            },
                            outbuf,
                        );
                        return true;
                    }
                }
            }
            let exec_start = Instant::now();
            if let Some(plan) = &state.config.load_plan {
                if let Some(LoadFault::SlowStore(d)) = plan.draw_store(wctx.worker as u64) {
                    std::thread::sleep(d);
                }
            }
            let store_t0 = if trace_id != 0 { trace::now_ns() } else { 0 };
            let (mut resp, ticket, staged) = match state.wal() {
                Some(wal) => {
                    let (resp, t) = state.store.execute_durable(engine, data_verb, wal);
                    match t {
                        Some((ticket, staged)) => (resp, Some(ticket), Some(staged)),
                        None => (resp, None, None),
                    }
                }
                // No WAL but a feed: the request path itself is the
                // durable prefix (there is nothing stronger to wait for),
                // so publish straight to the feed after the shard commit.
                None if feed.is_some() => {
                    let (resp, staged) = state.store.execute_staged(engine, data_verb);
                    (resp, None, staged)
                }
                None => (state.store.execute(engine, data_verb), None, None),
            };
            let exec_ns = exec_start.elapsed().as_nanos() as u64;
            if trace_id != 0 {
                resp_t0 = trace::now_ns();
                state.rt.tracer().push(Span {
                    trace_id,
                    kind: SpanKind::StoreOp,
                    start_ns: store_t0,
                    dur_ns: resp_t0.saturating_sub(store_t0),
                    a: verb_index(data_verb) as u64,
                    b: 0,
                });
            }
            // Engine latency only feeds the brownout EWMA — the group
            // commit wait below is deliberate batching, not overload, and
            // must not drive the controller toward shedding.
            wctx.lat_sum_ns += exec_ns;
            wctx.lat_count += 1;
            state.counters.note_executed(wctx.worker, exec_ns);
            // Ack-after-barrier: the response for a mutating verb is not
            // encoded until its WAL record is inside an fsynced prefix.
            // The in-memory effect is already applied; if the log died,
            // say so instead of acknowledging a write that may not
            // survive a crash.
            if let (Some(ticket), Some(wal)) = (ticket, state.wal()) {
                let wait_t0 = if trace_id != 0 { trace::now_ns() } else { 0 };
                let waited = wal.wait(ticket);
                if trace_id != 0 {
                    let now = trace::now_ns();
                    state.rt.tracer().push(Span {
                        trace_id,
                        kind: SpanKind::WalCommit,
                        start_ns: wait_t0,
                        dur_ns: now.saturating_sub(wait_t0),
                        a: ticket.number(),
                        b: 0,
                    });
                    resp_t0 = now;
                }
                if waited.is_err() {
                    resp = Response::Error {
                        message: "write-ahead log failed; write not durable",
                    };
                }
            } else if let (Some(feed), Some(staged)) = (feed, staged.as_ref()) {
                // No-WAL primary: everything applied is "durable" by this
                // deployment's definition, so it enters the feed here.
                feed.publish(staged.shard, std::slice::from_ref(staged));
                state.wake_repl_out();
            }
            // Replication gate: with `min_acks` configured, the ack is
            // withheld until enough replicas confirmed this version (or
            // the primary turns out to be fenced — then the client must
            // not treat the write as accepted, even though it applied
            // locally: the promoted side's history wins).
            if let (Some(feed), Some(staged)) = (feed, staged.as_ref()) {
                if !matches!(resp, Response::Error { .. }) {
                    match feed.wait_replicated(
                        staged.shard,
                        staged.seq,
                        state.config.repl_ack_timeout,
                    ) {
                        Ok(()) => {}
                        Err(ReplWaitError::Fenced) => {
                            resp = Response::Error {
                                message: "primary fenced: write not acknowledged",
                            };
                        }
                        Err(ReplWaitError::Timeout) => {
                            resp = Response::Error {
                                message: "replication timed out: write not acknowledged",
                            };
                        }
                    }
                }
            }
            // Deadline post-check: the effect is already applied (the
            // engine ran), but the client stopped waiting — tell it so
            // instead of shipping a result it will ignore. Documented
            // semantics: deadlines bound *waiting*, not *effects*.
            match deadline_us {
                Some(budget_us) if expired(arrival, budget_us) => {
                    state.counters.note_deadline_post();
                    encode_response(&Response::DeadlineExceeded, outbuf);
                }
                _ => encode_response(&resp, outbuf),
            }
            true
        }
    };
    if trace_id != 0 {
        state.rt.tracer().push(Span {
            trace_id,
            kind: SpanKind::ResponseWrite,
            start_ns: resp_t0,
            dur_ns: trace::now_ns().saturating_sub(resp_t0),
            a: (outbuf.len() - out_start) as u64,
            b: 0,
        });
    }
    keep_open
}

/// Handles one replication verb on this connection.
///
/// Free function with the same disjoint-borrow shape as
/// [`execute_admitted`]: `outbuf`, the subscription slot and the closing
/// flag come in as separate `&mut`s from the destructured connection.
fn handle_repl_frame(
    engine: &Engine<'_>,
    state: &ServerState,
    outbuf: &mut Vec<u8>,
    repl: &mut Option<ReplSub>,
    closing: &mut bool,
    body: &[u8],
) {
    match decode_repl_request(body) {
        Ok(ReplRequest::Hello { versions }) => {
            // A replica cannot feed other replicas (no chaining in this
            // topology) — redirect the subscriber at the primary.
            if state.is_replica() {
                let hint = state.upstream_hint();
                encode_response(&Response::NotPrimary { hint: &hint }, outbuf);
                return;
            }
            let Some(feed) = state.repl_feed() else {
                encode_response(
                    &Response::Error {
                        message: "replication not enabled (start with --repl-accept)",
                    },
                    outbuf,
                );
                *closing = true;
                return;
            };
            // A second HELLO on the same connection replaces the old
            // subscription (a replica restarting its session).
            if let Some(old) = repl.take() {
                feed.unsubscribe(old.id);
            }
            let id = feed.subscribe(&versions);
            *repl = Some(ReplSub::new(id));
            encode_response(
                &Response::ReplWelcome {
                    shards: state.store.shards() as u32,
                    epoch: state.epoch(),
                },
                outbuf,
            );
        }
        Ok(ReplRequest::Ack {
            shard,
            version,
            nak,
        }) => {
            // Acks are one-way: no response rides back. A NAK flags the
            // shard for snapshot resync inside the feed.
            if let (Some(sub), Some(feed)) = (repl.as_ref(), state.repl_feed()) {
                feed.note_ack(sub.id, shard, version, nak);
            }
        }
        Ok(ReplRequest::Candidate { epoch, versions }) => {
            // A vote request from a peer replica standing for election.
            // Election safety lives in these denials: one vote per epoch,
            // a live primary never votes anyone in over itself, and a
            // candidate with less replicated history than ours never gets
            // our vote (so the winner has at least a majority's worth of
            // acked history).
            let own: u64 = state.store.versions(engine).iter().sum();
            let candidate: u64 = versions.iter().sum();
            let granted = state.is_replica()
                && epoch > state.epoch()
                && candidate >= own
                && state.try_vote(epoch);
            if granted {
                // Granting adopts the epoch: even if this candidate loses,
                // the old primary's stream is now recognizably stale here.
                state.observe_epoch(epoch);
            }
            encode_response(
                &Response::ReplVote {
                    granted,
                    epoch: state.epoch(),
                    version_sum: own,
                },
                outbuf,
            );
        }
        Ok(ReplRequest::EpochAnnounce { epoch, primary }) => {
            // The election winner telling us where the new primary lives.
            if !state.is_replica() {
                // A deposed primary does NOT adopt the announce — adopting
                // would un-fence it. It stays primary-at-old-epoch, kept
                // harmless by lease fencing (its replicas are gone) and by
                // stale-epoch rejection on every batch it still emits.
                encode_response(
                    &Response::Error {
                        message: "cannot repoint a primary; demotion is not supported",
                    },
                    outbuf,
                );
                return;
            }
            if epoch < state.epoch() {
                encode_response(
                    &Response::Error {
                        message: "stale epoch announce",
                    },
                    outbuf,
                );
                return;
            }
            state.observe_epoch(epoch);
            match std::str::from_utf8(primary) {
                Ok(addr) => {
                    if !addr.is_empty() && addr != state.advertised() {
                        state.set_upstream(addr.to_string());
                    }
                    encode_response(&Response::Done, outbuf);
                }
                Err(_) => encode_response(
                    &Response::Error {
                        message: "primary address is not valid UTF-8",
                    },
                    outbuf,
                ),
            }
        }
        Ok(ReplRequest::Promote { upstream }) => {
            if upstream.is_empty() {
                // Become primary. Idempotent; the feed re-bases to the
                // store's live versions.
                state.promote_to_primary(engine);
                encode_response(&Response::Done, outbuf);
            } else {
                match std::str::from_utf8(upstream) {
                    Ok(addr) if state.is_replica() => {
                        // Repoint at a new primary; the sink thread picks
                        // the change up on its next poll tick.
                        state.set_upstream(addr.to_string());
                        encode_response(&Response::Done, outbuf);
                    }
                    Ok(_) => encode_response(
                        &Response::Error {
                            message: "cannot repoint a primary; demotion is not supported",
                        },
                        outbuf,
                    ),
                    Err(_) => encode_response(
                        &Response::Error {
                            message: "upstream address is not valid UTF-8",
                        },
                        outbuf,
                    ),
                }
            }
        }
        Err(e) => {
            state.counters.note_malformed();
            let message = format!("malformed replication frame: {e}");
            encode_response(&Response::Error { message: &message }, outbuf);
            *closing = true;
        }
    }
}

/// Whether `budget_us` microseconds have fully elapsed since `arrival`.
/// A zero budget is always expired — the probe clients use that to test
/// the pre-check without a race.
fn expired(arrival: Instant, budget_us: u32) -> bool {
    arrival.elapsed() >= Duration::from_micros(u64::from(budget_us))
}
