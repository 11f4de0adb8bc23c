//! A closed connection must give its socket back.
//!
//! This file holds a single test on purpose: it counts the sockets the
//! whole test process holds, so no other test may open any while it
//! runs.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use indulgent_server::{remote_stats, EngineConfig, KvServer};

/// Sockets this process holds open, read from `/proc/self/fd`.
fn open_sockets() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("proc readable")
        .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}

#[test]
fn closed_connections_release_their_sockets() {
    let server = KvServer::bind("127.0.0.1:0", EngineConfig::default_5()).expect("bind");
    let before = open_sockets();
    for _ in 0..50 {
        remote_stats(server.addr(), 0, Duration::from_secs(5)).expect("scrape");
    }
    // Each connection's threads notice the hang-up asynchronously; give
    // them time, then require the count back near where it started.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now_open = open_sockets();
    while now_open > before + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now_open = open_sockets();
    }
    assert!(
        now_open <= before + 4,
        "50 closed connections left {} sockets open ({before} before)",
        now_open - before
    );
    server.shutdown().check().expect("audit clean");
}
