//! The router on the shared HTTP/1.1 wire layer: slow and pipelined
//! clients are answered, and shard responses that break the head bounds
//! eject the shard instead of being relayed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use swrouter::{Router, RouterConfig, RouterHandle};
use swserve::http::{MAX_HEADERS, MAX_LINE};
use swserve::server::{Server, ServerConfig, ServerHandle};

fn boot_shard() -> (ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig::default()).expect("bind shard");
    let handle = server.handle();
    let runner = thread::spawn(move || server.run().expect("shard run"));
    (handle, runner)
}

fn boot_router(shards: &[SocketAddr]) -> (RouterHandle, thread::JoinHandle<()>) {
    let config = RouterConfig {
        backends: shards.iter().map(|a| a.to_string()).collect(),
        health_interval: Duration::from_millis(25),
        io_timeout: Duration::from_secs(5),
        ..RouterConfig::default()
    };
    let router = Router::bind(&config).expect("bind router");
    let handle = router.handle();
    let runner = thread::spawn(move || router.run().expect("router run"));
    (handle, runner)
}

/// Reads `count` responses off a raw socket; returns each one's status
/// code and body.
fn read_responses(stream: &mut TcpStream, count: usize) -> Vec<(u16, String)> {
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let mut responses = Vec::new();
        let mut rest = std::str::from_utf8(&raw).unwrap();
        while let Some((head, tail)) = rest.split_once("\r\n\r\n") {
            let length: usize = head
                .lines()
                .find_map(|line| line.strip_prefix("content-length: "))
                .expect("content-length")
                .parse()
                .unwrap();
            if tail.len() < length {
                break;
            }
            let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
            responses.push((status, tail[..length].to_string()));
            rest = &tail[length..];
        }
        if responses.len() >= count {
            return responses;
        }
        let n = stream.read(&mut chunk).expect("response bytes");
        assert!(
            n > 0,
            "closed after {} of {count} responses",
            responses.len()
        );
        raw.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn slow_and_pipelined_clients_are_answered_through_the_router() {
    let (shard, shard_runner) = boot_shard();
    let (router, router_runner) = boot_router(&[shard.addr()]);
    let body = r#"{"gate":"maj3","inputs":[0,1,1]}"#;
    let direct = swserve::respond(&swjson::Json::parse(body).unwrap()).unwrap() + "\n";

    // A head and then a body, each split by a pause longer than the
    // server's 200 ms read tick.
    let mut client = TcpStream::connect(router.addr()).unwrap();
    let head = format!(
        "POST /v1/gate/eval HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let (first, second) = head.split_at(20);
    client.write_all(first.as_bytes()).unwrap();
    thread::sleep(Duration::from_millis(400));
    client.write_all(second.as_bytes()).unwrap();
    client.write_all(&body.as_bytes()[..10]).unwrap();
    thread::sleep(Duration::from_millis(400));
    client.write_all(&body.as_bytes()[10..]).unwrap();
    let answered = read_responses(&mut client, 1);
    assert_eq!(answered[0], (200, direct.clone()));

    // Two requests in one write: both answered, in order.
    let pipelined = format!("GET /healthz HTTP/1.1\r\n\r\n{head}{body}");
    client.write_all(pipelined.as_bytes()).unwrap();
    let answered = read_responses(&mut client, 2);
    assert_eq!(answered[0].0, 200);
    assert!(
        answered[0].1.contains(r#""role":"router""#),
        "{}",
        answered[0].1
    );
    assert_eq!(answered[1], (200, direct));
    drop(client);

    router.shutdown();
    router_runner.join().unwrap();
    shard.shutdown();
    shard_runner.join().unwrap();
}

/// A shard that answers every request on every connection with `response`.
fn fake_shard(response: String) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let response = response.clone();
            thread::spawn(move || {
                let mut buffer = [0u8; 4096];
                while matches!(stream.read(&mut buffer), Ok(n) if n > 0) {
                    if stream.write_all(response.as_bytes()).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn shard_responses_past_the_head_bounds_eject_the_shard() {
    let ok = "{\"status\":\"ok\"}\n";
    let long_line = format!(
        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nx-pad: {}\r\nconnection: keep-alive\r\n\r\n{ok}",
        ok.len(),
        "a".repeat(2 * MAX_LINE)
    );
    let mut many_headers = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n", ok.len());
    for i in 0..MAX_HEADERS {
        many_headers.push_str(&format!("x-pad-{i}: {i}\r\n"));
    }
    many_headers.push_str("\r\n");
    many_headers.push_str(ok);
    let shards = [fake_shard(long_line), fake_shard(many_headers)];
    let (router, router_runner) = boot_router(&shards);

    let mut client = TcpStream::connect(router.addr()).unwrap();
    let body = r#"{"gate":"xor","inputs":[1,0]}"#;
    let request = format!(
        "POST /v1/gate/eval HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    client.write_all(request.as_bytes()).unwrap();
    let answered = read_responses(&mut client, 1);
    assert_eq!(answered[0].0, 503, "{}", answered[0].1);
    assert!(answered[0].1.contains("no healthy backend"));
    assert!(!router.backend_healthy(0) && !router.backend_healthy(1));
    drop(client);

    router.shutdown();
    router_runner.join().unwrap();
}
