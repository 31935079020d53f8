//! Wake-path tests: `goccd`'s threads block in `poll(2)` between passes,
//! so an idle daemon must cost no CPU, yet still answer a new connection,
//! evict a stuck client and shut down promptly — every one of those
//! wakeups has to come from readiness, a wake fd or a deadline.

use std::io::Write;
use std::net::TcpStream;
use std::os::raw::{c_int, c_long};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gocc_server::{spawn, Mode, ServerConfig, ServerHandle};
use gocc_wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, MAX_SCAN,
};

/// The CPU test reads the whole process's counters, so this file's tests
/// run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

extern "C" {
    fn sysconf(name: c_int) -> c_long;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: c_int = 2;

/// User + system CPU seconds this process has used so far, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesized command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    // SAFETY: sysconf has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    ticks as f64 / hz as f64
}

fn config() -> ServerConfig {
    ServerConfig {
        mode: Mode::Gocc,
        port: 0,
        workers: 2,
        shards: 2,
        capacity_per_shard: 1024,
        ..ServerConfig::default()
    }
}

fn connect(port: u16) -> TcpStream {
    let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// One request/response round-trip; returns the response frame's length.
fn call(stream: &mut TcpStream, req: &Request<'_>) -> usize {
    let mut wire = Vec::new();
    encode_request(req, &mut wire);
    write_frame(stream, &wire).expect("send");
    let mut resp = Vec::new();
    assert!(
        read_frame(stream, &mut resp).expect("recv"),
        "server closed"
    );
    assert!(
        !matches!(decode_response(&resp), Ok(Response::Error { .. }) | Err(_)),
        "unexpected response to {req:?}"
    );
    resp.len()
}

/// A daemon with one connected client that has been served once and then
/// gone silent, given time for every thread to block.
fn idle_daemon() -> (ServerHandle, TcpStream) {
    let handle = spawn(config()).expect("spawn");
    let mut c = connect(handle.port());
    call(&mut c, &Request::Get { key: b"k" });
    std::thread::sleep(Duration::from_millis(100));
    (handle, c)
}

#[test]
fn idle_daemon_with_a_silent_client_uses_no_cpu() {
    let _g = serial();
    let (handle, _client) = idle_daemon();
    let t0 = process_cpu_s();
    std::thread::sleep(Duration::from_secs(1));
    let used = process_cpu_s() - t0;
    assert!(
        used < 0.02,
        "idle daemon burned {used:.3} s of CPU in 1 s (threads must block, not sleep-poll)"
    );
    handle.request_shutdown();
    let _ = handle.join();
}

#[test]
fn request_shutdown_wakes_blocked_threads() {
    let _g = serial();
    let (handle, _client) = idle_daemon();
    handle.request_shutdown();
    // Join on a helper thread: a thread that misses the wake blocks in
    // poll(2) forever, and the test must fail rather than hang.
    let (done_tx, done_rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        let _ = handle.join();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_millis(200)).is_ok(),
        "join did not return within 200 ms of request_shutdown on an idle daemon"
    );
    joiner.join().expect("joiner thread");
}

#[test]
fn stuck_client_is_evicted_while_its_worker_blocks() {
    let _g = serial();
    let mut cfg = config();
    cfg.capacity_per_shard = 2 * MAX_SCAN as usize;
    cfg.write_timeout = Duration::from_millis(200);
    // Nothing in the burst below may be shed: every SCAN must answer in
    // full, so the responses overrun the socket buffers.
    cfg.queue_limit = u64::MAX;
    cfg.brownout.depth_high = f64::MAX;
    cfg.brownout.latency_high = Duration::from_secs(3600);
    let handle = spawn(cfg).expect("spawn");
    let mut c = connect(handle.port());
    // MAX_SCAN live keys make every full SCAN page ~64 KiB.
    let mut wire = Vec::new();
    let mut one = Vec::new();
    for i in 0..u64::from(MAX_SCAN) {
        one.clear();
        let key = i.to_le_bytes();
        encode_request(
            &Request::Set {
                key: &key,
                value: i,
                ttl: 0,
            },
            &mut one,
        );
        write_frame(&mut wire, &one).unwrap();
    }
    c.write_all(&wire).expect("send preload");
    let mut resp = Vec::new();
    for _ in 0..MAX_SCAN {
        assert!(
            read_frame(&mut c, &mut resp).expect("recv"),
            "server closed"
        );
    }
    let scan = Request::Scan { limit: MAX_SCAN };
    let page = call(&mut c, &scan);
    // Queue several times more response bytes than loopback's socket
    // buffers hold (a few MiB at Linux defaults), then never read: the
    // server's writes stall and, once the burst is processed, its worker
    // sits in poll(2) with only the write deadline left to wake it.
    one.clear();
    encode_request(&scan, &mut one);
    wire.clear();
    for _ in 0..(8 << 20) / page + 1 {
        write_frame(&mut wire, &one).unwrap();
    }
    c.write_all(&wire).expect("send burst");
    let t0 = Instant::now();
    while handle.state().counters().slow_drops() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "stuck client not evicted within 2 s of its burst"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.slow_client_drops, 1, "{summary:?}");
}

#[test]
fn connection_after_idle_is_served_promptly() {
    let _g = serial();
    let handle = spawn(config()).expect("spawn");
    std::thread::sleep(Duration::from_secs(1));
    let t0 = Instant::now();
    let mut c = connect(handle.port());
    call(&mut c, &Request::Health);
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "first response after 1 s idle took {took:?}"
    );
    handle.request_shutdown();
    let _ = handle.join();
}
