//! End-to-end overload tests: deadlines, HEALTH, brownout shedding and
//! oversized-frame resynchronization against a real `goccd` over loopback.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gocc_server::{spawn, HealthState, Mode, ServerConfig};
use gocc_wire::{
    decode_response, encode_request, encode_request_v2, read_frame, write_frame, Request, Response,
    MAX_FRAME,
};

/// Blocking request/response helper over one client connection.
struct Client {
    stream: TcpStream,
    wirebuf: Vec<u8>,
    respbuf: Vec<u8>,
}

impl Client {
    fn connect(port: u16) -> Client {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            stream,
            wirebuf: Vec::new(),
            respbuf: Vec::new(),
        }
    }

    fn call(&mut self, req: &Request<'_>) -> Response<'_> {
        self.wirebuf.clear();
        encode_request(req, &mut self.wirebuf);
        self.roundtrip()
    }

    /// A protocol-v2 call carrying a deadline budget.
    fn call_v2(&mut self, req: &Request<'_>, deadline_us: Option<u32>) -> Response<'_> {
        self.wirebuf.clear();
        encode_request_v2(req, deadline_us, &mut self.wirebuf);
        self.roundtrip()
    }

    fn roundtrip(&mut self) -> Response<'_> {
        write_frame(&mut self.stream, &self.wirebuf).expect("send");
        assert!(
            read_frame(&mut self.stream, &mut self.respbuf).expect("recv"),
            "server closed mid-conversation"
        );
        decode_response(&self.respbuf).expect("well-formed response")
    }
}

fn config(mode: Mode) -> ServerConfig {
    ServerConfig {
        mode,
        port: 0,
        workers: 2,
        shards: 2,
        capacity_per_shard: 1024,
        drain_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    }
}

#[test]
fn health_verb_reports_state_and_counters() {
    gocc_gosync::set_procs(8);
    let handle = spawn(config(Mode::Gocc)).expect("spawn");
    let mut c = Client::connect(handle.port());
    let Response::Health {
        state,
        shed_total,
        deadline_misses,
    } = c.call(&Request::Health)
    else {
        panic!("HEALTH must return a health response");
    };
    assert_eq!(HealthState::from_u8(state), HealthState::Healthy);
    assert_eq!(shed_total, 0);
    assert_eq!(deadline_misses, 0);
    handle.request_shutdown();
    let _ = handle.join();
}

#[test]
fn expired_deadline_never_reaches_the_engine() {
    gocc_gosync::set_procs(8);
    let handle = spawn(config(Mode::Gocc)).expect("spawn");
    let mut c = Client::connect(handle.port());
    // A zero budget is expired on arrival by definition: the SET must be
    // answered DeadlineExceeded and must NOT be applied.
    assert_eq!(
        c.call_v2(
            &Request::Set {
                key: b"never",
                value: 1,
                ttl: 0
            },
            Some(0)
        ),
        Response::DeadlineExceeded
    );
    assert_eq!(
        c.call(&Request::Get { key: b"never" }),
        Response::Value {
            found: false,
            value: 0
        },
        "an expired request must never execute against the engine"
    );
    // A generous budget executes normally through the same v2 path.
    assert_eq!(
        c.call_v2(
            &Request::Set {
                key: b"soon",
                value: 2,
                ttl: 0
            },
            Some(2_000_000)
        ),
        Response::Done
    );
    assert_eq!(
        c.call(&Request::Get { key: b"soon" }),
        Response::Value {
            found: true,
            value: 2
        }
    );
    // HEALTH (a control verb, never deadline-checked) sees the miss.
    let Response::Health {
        deadline_misses, ..
    } = c.call_v2(&Request::Health, Some(0))
    else {
        panic!("health response expected");
    };
    assert_eq!(deadline_misses, 1);
    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.deadline_misses, 1);
}

#[test]
fn shedding_state_rejects_writes_and_serves_reads() {
    gocc_gosync::set_procs(8);
    let mut cfg = config(Mode::Gocc);
    // Workers feed idle observations continuously; an effectively
    // unreachable recovery threshold pins whatever state the test forces.
    cfg.brownout.recover_obs = u32::MAX;
    let handle = spawn(cfg).expect("spawn");
    let mut c = Client::connect(handle.port());
    assert_eq!(
        c.call(&Request::Set {
            key: b"pre",
            value: 7,
            ttl: 0
        }),
        Response::Done
    );

    // Two saturated observations walk the controller H→D→S.
    handle.state().brownout().observe(1e18, 1e18);
    handle.state().brownout().observe(1e18, 1e18);
    assert_eq!(handle.state().brownout().state(), HealthState::Shedding);

    // Writes are shed with the retriable Overloaded response...
    let Response::Overloaded { state } = c.call(&Request::Set {
        key: b"shed",
        value: 1,
        ttl: 0,
    }) else {
        panic!("writes must be shed while Shedding");
    };
    assert_eq!(HealthState::from_u8(state), HealthState::Shedding);
    // ... SCAN likewise ...
    assert!(matches!(
        c.call(&Request::Scan { limit: 10 }),
        Response::Overloaded { .. }
    ));
    // ... but reads and the control plane still work on the SAME
    // connection — shedding is per-request, not per-connection.
    assert_eq!(
        c.call(&Request::Get { key: b"pre" }),
        Response::Value {
            found: true,
            value: 7
        }
    );
    assert!(matches!(
        c.call(&Request::Health),
        Response::Health { state: 2, .. }
    ));
    handle.request_shutdown();
    let summary = handle.join();
    assert!(summary.shed_total >= 2, "{summary:?}");
}

#[test]
fn brownout_recovers_to_healthy_after_load_removal() {
    gocc_gosync::set_procs(8);
    let mut cfg = config(Mode::Gocc);
    cfg.brownout.alpha = 0.5;
    cfg.brownout.recover_obs = 3;
    let handle = spawn(cfg).expect("spawn");
    let mut c = Client::connect(handle.port());
    handle.state().brownout().observe(1_000.0, 0.0);
    handle.state().brownout().observe(1_000.0, 0.0);
    assert_eq!(handle.state().brownout().state(), HealthState::Shedding);
    // With no load, the workers' idle observations decay the EWMAs and
    // the server must walk back to Healthy well within 5 seconds.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Response::Health { state, .. } = c.call(&Request::Health) {
            if HealthState::from_u8(state) == HealthState::Healthy {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "server failed to recover within 5s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let t = handle.state().brownout().transitions();
    assert!(
        t[2] >= 1 && t[3] >= 1,
        "recovery edges must be counted: {t:?}"
    );
    handle.request_shutdown();
    let _ = handle.join();
}

#[test]
fn brownout_recovers_with_no_traffic() {
    gocc_gosync::set_procs(8);
    let mut cfg = config(Mode::Gocc);
    cfg.brownout.alpha = 0.5;
    cfg.brownout.recover_obs = 3;
    let handle = spawn(cfg).expect("spawn");
    // No client ever connects: the workers sit blocked in poll(2), and
    // only the recovery tick can feed the controller the idle
    // observations it needs to walk back down.
    std::thread::sleep(Duration::from_millis(50));
    handle.state().brownout().observe(1_000.0, 0.0);
    handle.state().brownout().observe(1_000.0, 0.0);
    assert_eq!(handle.state().brownout().state(), HealthState::Shedding);
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.state().brownout().state() != HealthState::Healthy {
        assert!(
            Instant::now() < deadline,
            "server stuck in {:?} with no traffic",
            handle.state().brownout().state()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let t = handle.state().brownout().transitions();
    assert!(
        t[2] >= 1 && t[3] >= 1,
        "recovery edges must be counted: {t:?}"
    );
    handle.request_shutdown();
    let _ = handle.join();
}

#[test]
fn queue_limit_sheds_a_pipelined_burst() {
    gocc_gosync::set_procs(8);
    let mut cfg = config(Mode::Gocc);
    cfg.queue_limit = 4;
    let handle = spawn(cfg).expect("spawn");
    let mut c = Client::connect(handle.port());
    // One giant pipelined burst: far more frames than the queue limit
    // arrive in a single pump pass, so the tail must be shed.
    const BURST: usize = 64;
    let mut wire = Vec::new();
    for i in 0..BURST {
        let key = format!("burst-{i}");
        encode_request(
            &Request::Set {
                key: key.as_bytes(),
                value: i as u64,
                ttl: 0,
            },
            &mut wire,
        );
    }
    c.stream.write_all(&wire).unwrap();
    c.stream.flush().unwrap();
    let (mut done, mut overloaded) = (0, 0);
    for _ in 0..BURST {
        assert!(read_frame(&mut c.stream, &mut c.respbuf).unwrap());
        match decode_response(&c.respbuf).unwrap() {
            Response::Done => done += 1,
            Response::Overloaded { .. } => overloaded += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(done >= 1, "some of the burst must be admitted");
    assert!(
        overloaded >= 1,
        "a burst past queue_limit must shed its tail (done={done})"
    );
    // The connection survived all of it.
    assert_eq!(
        c.call(&Request::Get { key: b"burst-0" }),
        Response::Value {
            found: true,
            value: 0
        }
    );
    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.shed_total, overloaded);
}

#[test]
fn oversized_frame_survives_and_resynchronizes_on_the_wire() {
    gocc_gosync::set_procs(8);
    let handle = spawn(config(Mode::Gocc)).expect("spawn");
    let mut c = Client::connect(handle.port());
    // A frame declaring more than MAX_FRAME bytes, fully delivered, then
    // a valid request: the server must answer an Error for the oversized
    // frame, discard its body, and serve the valid request on the same
    // connection.
    let oversized = (MAX_FRAME + 17) as u32;
    let mut wire = Vec::new();
    wire.extend_from_slice(&oversized.to_le_bytes());
    wire.resize(wire.len() + oversized as usize, 0xEE);
    encode_request(
        &Request::Set {
            key: b"after-oversize",
            value: 9,
            ttl: 0,
        },
        &mut wire,
    );
    c.stream.write_all(&wire).unwrap();
    c.stream.flush().unwrap();
    assert!(read_frame(&mut c.stream, &mut c.respbuf).unwrap());
    let Response::Error { message } = decode_response(&c.respbuf).unwrap() else {
        panic!("oversized frame must be answered with an Error");
    };
    assert!(message.contains("size limit"), "{message}");
    assert!(read_frame(&mut c.stream, &mut c.respbuf).unwrap());
    assert_eq!(decode_response(&c.respbuf).unwrap(), Response::Done);
    assert_eq!(
        c.call(&Request::Get {
            key: b"after-oversize"
        }),
        Response::Value {
            found: true,
            value: 9
        }
    );
    handle.request_shutdown();
    let summary = handle.join();
    assert_eq!(summary.oversized_frames, 1);
    assert_eq!(summary.malformed_frames, 0);
}
