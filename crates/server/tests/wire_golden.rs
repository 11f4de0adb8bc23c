//! Golden byte vectors for every frame that crosses a socket.
//!
//! Each vector is one frame *payload* (tag byte first; the 4-byte
//! length header of [`indulgent_server::wire`] is not part of it),
//! written out in hex with the fields separated by spaces. Reply frames
//! are pinned through their public `encode`/`decode`. Request frames
//! are pinned through the client functions that put them on a socket
//! (`remote_audit`, `remote_lease_state`, `remote_stats`,
//! `sync_from_peer`), captured by a fake peer, and through a real
//! server answering the golden bytes. A codec refactor must leave every
//! vector here byte-identical.

use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::Duration;

use indulgent_model::{ClientId, RequestId};
use indulgent_server::wire::{write_frame, FrameReader};
use indulgent_server::{
    remote_audit, remote_lease_state, remote_stats, sync_from_peer, AuditSummary, EngineConfig,
    KvOp, KvServer, LeaseStatus, Outcome, Request, Response, StatsReport, SyncFrame,
};

/// Parses a golden vector, ignoring the spaces that separate fields.
fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert_eq!(digits.len() % 2, 0, "odd hex digit count in {s:?}");
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// `n` zero bytes as hex.
fn zeros(n: usize) -> String {
    "00".repeat(n)
}

const CLIENT: ClientId = ClientId(0x0102_0304_0506_0708);

#[test]
fn request_frames() {
    let put = Request {
        client: CLIENT,
        request: RequestId(9),
        op: KvOp::Put { key: 0x0a0b, value: 0xdead_beef },
    };
    let get = Request { client: CLIENT, request: RequestId(10), op: KvOp::Get { key: 0x0a0b } };
    for (request, golden) in [
        (put, "01 0807060504030201 0900000000000000 01 0b0a efbeadde"),
        (get, "01 0807060504030201 0a00000000000000 02 0b0a"),
    ] {
        assert_eq!(request.encode(), unhex(golden), "{request:?}");
        assert_eq!(Request::decode(&unhex(golden)).unwrap(), request);
    }
}

#[test]
fn response_frames() {
    let cases = [
        (Outcome::Put { slot: 5 }, "02 0900000000000000 03000000 01 0500000000000000"),
        (
            Outcome::Get { slot: 6, value: Some(0x1122_3344) },
            "02 0900000000000000 03000000 02 0600000000000000 01 44332211",
        ),
        (
            Outcome::Get { slot: 6, value: None },
            "02 0900000000000000 03000000 02 0600000000000000 00",
        ),
        (
            Outcome::Read { index: 7, value: Some(1) },
            "02 0900000000000000 03000000 03 0700000000000000 01 01000000",
        ),
        (
            Outcome::Read { index: 7, value: None },
            "02 0900000000000000 03000000 03 0700000000000000 00",
        ),
    ];
    for (outcome, golden) in cases {
        let response = Response { request: RequestId(9), shard: 3, outcome };
        assert_eq!(response.encode(), unhex(golden), "{response:?}");
        assert_eq!(Response::decode(&unhex(golden)).unwrap(), response);
    }
}

#[test]
fn sync_stream_frames() {
    let cases = [
        (
            SyncFrame::SnapshotChunk { index: 1, total: 2, bytes: vec![0xaa, 0xbb] },
            "04 01000000 02000000 aabb",
        ),
        (SyncFrame::Record { bytes: vec![0xcc, 0xdd, 0xee] }, "05 ccddee"),
        (SyncFrame::Done { applied_through: 0x0102 }, "06 0201000000000000"),
    ];
    for (frame, golden) in cases {
        assert_eq!(frame.encode(), unhex(golden), "{frame:?}");
        assert_eq!(SyncFrame::decode(&unhex(golden)).unwrap(), frame);
    }
}

fn golden_audit_summary() -> (AuditSummary, &'static str) {
    let summary = AuditSummary {
        complete: true,
        ok: true,
        slots: 1,
        committed: 2,
        dedup_hits: 3,
        fast_reads: 4,
        lease_epoch: 5,
        shards: 6,
    };
    let golden = "08 01 01 0100000000000000 0200000000000000 0300000000000000 \
                  0400000000000000 0500000000000000 06000000";
    (summary, golden)
}

#[test]
fn audit_summary_frame() {
    let (summary, golden) = golden_audit_summary();
    assert_eq!(summary.encode(), unhex(golden));
    assert_eq!(AuditSummary::decode(&unhex(golden)).unwrap(), summary);
}

fn golden_lease_status() -> (LeaseStatus, &'static str) {
    let status = LeaseStatus {
        shard: 1,
        shards: 2,
        mode: 2,
        epoch: 3,
        healthy: true,
        grants: 4,
        read_index: 5,
        reads_lease: 6,
        reads_quorum: 7,
        reads_sequenced: 8,
    };
    let golden = "0f 01000000 02000000 02 0300000000000000 01 04000000 0500000000000000 \
                  0600000000000000 0700000000000000 0800000000000000";
    (status, golden)
}

#[test]
fn lease_status_frame() {
    let (status, golden) = golden_lease_status();
    assert_eq!(status.encode(), unhex(golden));
    assert_eq!(LeaseStatus::decode(&unhex(golden)).unwrap(), status);
}

/// A report with counters 1..6 and one non-empty histogram
/// (`submit_seal`: two samples in bucket 3, sum 20, max 12); the other
/// five histograms are empty. Each histogram travels as 64 bucket
/// counts, then sum, then max.
fn golden_stats_report() -> (StatsReport, String) {
    let mut report = StatsReport::zero(1, 2);
    report.slots = 1;
    report.committed = 2;
    report.dedup_hits = 3;
    report.reads_lease = 4;
    report.reads_quorum = 5;
    report.reads_sequenced = 6;
    report.submit_seal.buckets[3] = 2;
    report.submit_seal.count = 2;
    report.submit_seal.sum = 20;
    report.submit_seal.max = 12;
    let empty_histogram = zeros(66 * 8);
    let golden = [
        "11 01000000 02000000".to_string(),
        "0100000000000000 0200000000000000 0300000000000000".to_string(),
        "0400000000000000 0500000000000000 0600000000000000".to_string(),
        zeros(3 * 8),
        "0200000000000000".to_string(),
        zeros(60 * 8),
        "1400000000000000 0c00000000000000".to_string(),
        empty_histogram.repeat(5),
    ]
    .join(" ");
    (report, golden)
}

#[test]
fn stats_report_frame() {
    let (report, golden) = golden_stats_report();
    assert_eq!(unhex(&golden).len(), 1 + 2 * 4 + 6 * 8 + 6 * 66 * 8);
    assert_eq!(report.encode(), unhex(&golden));
    assert_eq!(StatsReport::decode(&unhex(&golden)).unwrap(), report);
}

/// A one-connection fake peer: reads the client's first frame, answers
/// with `replies`, then waits for the client to hang up. Joins to the
/// request payload the client sent.
fn fake_peer(replies: Vec<Vec<u8>>) -> (SocketAddr, JoinHandle<Vec<u8>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new(sock.try_clone().expect("clone"));
        let request = reader.read_frame().expect("read").expect("a request frame");
        for reply in &replies {
            write_frame(&mut sock, reply).expect("reply");
        }
        if !replies.is_empty() {
            while let Ok(Some(_)) = reader.read_frame() {}
        }
        request
    });
    (addr, peer)
}

const WAIT: Duration = Duration::from_secs(10);

#[test]
fn clients_send_the_golden_control_requests() {
    let (summary, golden) = golden_audit_summary();
    let (addr, peer) = fake_peer(vec![unhex(golden)]);
    assert_eq!(remote_audit(addr, WAIT).expect("audit"), summary);
    assert_eq!(peer.join().unwrap(), unhex("07"));

    let (status, golden) = golden_lease_status();
    let (addr, peer) = fake_peer(vec![unhex(golden)]);
    assert_eq!(remote_lease_state(addr, 1, WAIT).expect("lease state"), status);
    assert_eq!(peer.join().unwrap(), unhex("0e 01000000"));

    let (report, golden) = golden_stats_report();
    let (addr, peer) = fake_peer(vec![unhex(&golden)]);
    assert_eq!(remote_stats(addr, 1, WAIT).expect("stats"), report);
    assert_eq!(peer.join().unwrap(), unhex("10 01000000"));

    // The peer hangs up without streaming anything: the transfer fails,
    // but the request it carried is what counts here.
    let (addr, peer) = fake_peer(Vec::new());
    let dir = std::env::temp_dir().join(format!("indulgent-golden-sync-{}", std::process::id()));
    assert!(sync_from_peer(addr, 1, &dir).is_err());
    assert_eq!(peer.join().unwrap(), unhex("03 0000000000000000 01000000"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Sends one golden request payload to a real server on a fresh
/// connection and returns the first reply payload.
fn ask(addr: SocketAddr, request: &str) -> Vec<u8> {
    let mut sock = std::net::TcpStream::connect(addr).expect("connect");
    write_frame(&mut sock, &unhex(request)).expect("send");
    sock.set_read_timeout(Some(WAIT)).expect("timeout");
    FrameReader::new(sock).read_frame().expect("reply").expect("a reply frame")
}

#[test]
fn a_server_answers_the_golden_control_requests() {
    let server =
        KvServer::bind("127.0.0.1:0", EngineConfig::default_5().with_shards(2)).expect("bind");
    let addr = server.addr();

    let summary = AuditSummary::decode(&ask(addr, "07")).expect("audit summary");
    assert!(summary.complete && summary.ok);
    assert_eq!(summary.shards, 2);

    // The tag-only lease-state request predates sharding: it reads as
    // shard 0.
    for (request, shard) in [("0e", 0), ("0e 00000000", 0), ("0e 01000000", 1)] {
        let status = LeaseStatus::decode(&ask(addr, request)).expect("lease status");
        assert_eq!((status.shard, status.shards), (shard, 2), "{request}");
    }

    let report = StatsReport::decode(&ask(addr, "10 01000000")).expect("stats report");
    assert_eq!((report.shard, report.shards), (1, 2));

    // A sync stream opens with the first snapshot chunk.
    let first = SyncFrame::decode(&ask(addr, "03 0000000000000000 01000000")).expect("sync");
    assert!(matches!(first, SyncFrame::SnapshotChunk { index: 0, .. }), "{first:?}");

    server.shutdown().check().expect("audit clean");
}
