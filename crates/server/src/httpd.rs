//! The one HTTP front end: listener → bounded queue → worker pool →
//! keep-alive loop, shared by the shard server and the router.
//!
//! Architecture: one accept loop (the thread that calls [`serve`]; it
//! waits in `poll(2)` on the non-blocking listener, so a new connection
//! is accepted when it arrives and an idle server wakes only to look at
//! the shutdown flag) feeds accepted connections into a bounded
//! [`BoundedQueue`]; a fixed pool of worker threads pops connections and
//! serves keep-alive request streams off them. When the queue is full
//! the acceptor answers `503` inline — bounded memory under overload,
//! the textbook load-shedding move. Workers yield a connection back to
//! the queue after `YIELD_AFTER` consecutive requests whenever other
//! connections are waiting, so hot keep-alive clients cannot starve the
//! rest even with a single worker thread.
//!
//! What a request *means* is the [`Handler`]'s business: it turns a
//! parsed [`Request`] into a [`Reply`] — an ordinary response, or a
//! take-over of the socket for an open-ended chunked feed. That seam is
//! also what lets the tests below drive the loop with a fake handler
//! and no index behind it.
//!
//! Shutdown is cooperative: once the shared flag is set the acceptor
//! stops and closes the queue; workers drain already-queued
//! connections, finish the request in flight, and exit. [`serve`]
//! returns only after every worker has joined.

use crate::http::{read_request, HttpError, Request, Response};
use crate::queue::{BoundedQueue, PushError};
use obs::Counter;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The body of a [`Reply::Stream`]: writes an open-ended response to
/// the client's socket and returns when the feed is over.
pub type Feed = Box<dyn FnOnce(&mut dyn Write)>;

/// What a [`Handler`] makes of one request.
pub enum Reply {
    /// An ordinary response; the connection stays in the keep-alive
    /// loop unless the response (or the client) asks to close it.
    Response(Response),
    /// The handler takes over the socket; the connection never
    /// re-enters the keep-alive loop.
    Stream(Feed),
}

impl From<Response> for Reply {
    fn from(resp: Response) -> Reply {
        Reply::Response(resp)
    }
}

/// The request → reply half of a front end, called concurrently from
/// every worker thread.
pub trait Handler: Sync {
    /// Answers one parsed request.
    fn serve(&self, req: &Request) -> Reply;
}

/// How one front end runs the loop.
#[derive(Debug, Clone, Copy)]
pub struct Tuning {
    /// `"server"` or `"router"`: the prefix of the loop's metrics
    /// (`<name>.accepted`, `.rejected`, `.requeued`, `.queue_depth`),
    /// of its worker-thread names, and of the `503` message.
    pub name: &'static str,
    /// Worker threads executing requests (min 1).
    pub threads: usize,
    /// Accepted connections waiting for a worker before `503`s start.
    pub queue_depth: usize,
    /// Per-connection read timeout; idle keep-alive connections are
    /// closed after this long, which also bounds shutdown latency.
    pub read_timeout: Duration,
}

/// Runs the accept loop on the calling thread until `shutdown` is set,
/// then drains and joins the workers.
pub fn serve(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    tuning: Tuning,
    handler: &impl Handler,
) -> io::Result<()> {
    let registry = obs::global();
    let name = tuning.name;
    let accepted = registry.counter(&format!("{name}.accepted"));
    let rejected = registry.counter(&format!("{name}.rejected"));
    let requeued = registry.counter(&format!("{name}.requeued"));
    let queue_depth = registry.gauge(&format!("{name}.queue_depth"));
    let queue: BoundedQueue<TcpStream> = BoundedQueue::new(tuning.queue_depth);

    std::thread::scope(|scope| {
        for i in 0..tuning.threads.max(1) {
            let spawned = std::thread::Builder::new()
                .name(format!("{name}-http-{i}"))
                .spawn_scoped(scope, || {
                    while let Some(stream) = queue.pop() {
                        serve_connection(
                            handler,
                            stream,
                            &queue,
                            &requeued,
                            shutdown,
                            tuning.read_timeout,
                        );
                    }
                });
            if let Err(e) = spawned {
                // Let the workers already started leave the scope.
                queue.close();
                return Err(e);
            }
        }
        while !shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    accepted.inc();
                    match queue.try_push(stream) {
                        Ok(()) => {}
                        Err(PushError::Full(stream)) | Err(PushError::Closed(stream)) => {
                            rejected.inc();
                            shed(stream, name);
                        }
                    }
                    queue_depth.set(queue.len() as i64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    queue_depth.set(queue.len() as i64);
                    wait_for_connection(listener);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    obs::warn!("{name}: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        obs::info!("{name}: draining, {} connection(s) queued", queue.len());
        queue.close();
        Ok(())
    })?;
    queue_depth.set(0);
    Ok(())
}

/// The longest the acceptor sleeps without looking at the shutdown
/// flag. Nothing wakes it when the flag is set (a signal latch, a
/// handler or a bare `store(true)` may set it), so this bounds how long
/// a drain waits to start.
const ACCEPT_WAIT: Duration = Duration::from_millis(50);

/// Blocks until the non-blocking `listener` has a connection to accept
/// or [`ACCEPT_WAIT`] has passed. Returns early on a signal; the caller
/// simply tries `accept` again.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener) {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x001;

    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `poll(2)` reads and writes exactly `nfds` = 1 `pollfd`
    // through the pointer, `fd` is a live, exclusively borrowed value
    // with that C layout (`int`, `short`, `short`), and the descriptor
    // stays open for the call because `listener` is borrowed across it.
    let ready = unsafe { poll(&mut fd, 1, ACCEPT_WAIT.as_millis() as i32) };
    if ready < 0 {
        // EINTR, or a failure `accept` will report: never spin.
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Off unix there is no `poll(2)` to call: nap as the loop always did.
#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener) {
    std::thread::sleep(Duration::from_millis(2));
}

/// Answers `503` on a connection the queue refused.
fn shed(mut stream: TcpStream, name: &str) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = Response::error(503, format!("{name} overloaded, try again"))
        .with_close()
        .write_to(&mut stream);
}

/// How many requests one connection may be served in a row while other
/// connections wait in the queue. A keep-alive client with a hot request
/// loop would otherwise monopolize its worker indefinitely — with
/// `--threads 1` and N clients, N-1 of them would starve for the whole
/// run. After a burst the connection goes to the back of the queue and
/// the worker picks up the next waiter, so a single worker round-robins.
const YIELD_AFTER: u32 = 32;

/// Serves a keep-alive request stream until close, error, or shutdown.
///
/// Fairness: after [`YIELD_AFTER`] requests, if other connections are
/// waiting in `queue`, the connection is pushed to the back of the queue
/// (counted in `<name>.requeued`) and this call returns so the worker can
/// serve a waiter. The re-queue is skipped when the client has already
/// pipelined bytes into the read buffer — those would be lost with the
/// `BufReader` — or when the queue filled up in the meantime.
fn serve_connection(
    handler: &impl Handler,
    stream: TcpStream,
    queue: &BoundedQueue<TcpStream>,
    requeued: &Counter,
    shutdown: &AtomicBool,
    timeout: Duration,
) {
    // Accepted sockets are blocking on Linux regardless of the listener's
    // non-blocking flag, but make it explicit rather than rely on that.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut served: u32 = 0;
    loop {
        let keep = match read_request(&mut reader) {
            Ok(req) => match handler.serve(&req) {
                Reply::Stream(feed) => {
                    feed(&mut writer);
                    false
                }
                Reply::Response(mut resp) => {
                    // The request in flight finishes; the connection does
                    // not outlive a shutdown.
                    if !req.keep_alive() || shutdown.load(Ordering::Acquire) {
                        resp.close = true;
                    }
                    resp.write_to(&mut writer).is_ok() && !resp.close
                }
            },
            Err(HttpError::Closed) => false,
            Err(HttpError::TooLarge) => {
                let _ = Response::error(413, "request too large")
                    .with_close()
                    .write_to(&mut writer);
                false
            }
            Err(HttpError::Malformed(m)) => {
                let _ = Response::error(400, m).with_close().write_to(&mut writer);
                false
            }
            // Timeouts land here. A timed-out read may have consumed a
            // partial request, so the stream cannot be resynchronized —
            // drop the connection and let the client reconnect.
            Err(HttpError::Io(_)) => false,
        };
        if !keep {
            return;
        }
        served += 1;
        if served >= YIELD_AFTER
            && !queue.is_empty()
            && reader.buffer().is_empty()
            && !shutdown.load(Ordering::Acquire)
        {
            match queue.try_push(reader.into_inner()) {
                Ok(()) => {
                    requeued.inc();
                    return;
                }
                // The queue filled between the is_empty check and the
                // push; keep serving this connection rather than drop it.
                Err(PushError::Full(stream)) => {
                    reader = BufReader::new(stream);
                    served = 0;
                }
                // Shutdown began; the connection does not outlive it.
                Err(PushError::Closed(_)) => return,
            }
        }
    }
}

/// A front end serving on a thread of its own — what `Server::spawn`
/// and `Router::spawn` return.
pub struct Running {
    host: String,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<()>>,
}

impl Running {
    /// Starts `run` (a bound front end's `run`) on a new thread.
    pub fn start(
        addr: SocketAddr,
        shutdown: Arc<AtomicBool>,
        run: impl FnOnce() -> io::Result<()> + Send + 'static,
    ) -> Running {
        Running {
            host: addr.to_string(),
            shutdown,
            thread: std::thread::spawn(run),
        }
    }

    /// The bound `ip:port`.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Sets the shutdown flag (a no-op after `POST /shutdown`), waits
    /// for the drain, and returns what `run` returned.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::Release);
        self.thread
            .join()
            .map_err(|_| io::Error::other(format!("serving thread of {} panicked", self.host)))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request};
    use std::io::Read;
    use std::sync::mpsc;
    use std::sync::Mutex;

    /// A handler that is just a closure: no index, no disk.
    struct Fake<F>(F);

    impl<F: Fn(&Request) -> Reply + Sync> Handler for Fake<F> {
        fn serve(&self, req: &Request) -> Reply {
            (self.0)(req)
        }
    }

    /// Runs the loop over `handler` on an ephemeral port. Each test
    /// passes its own metric prefix, so counter assertions are exact
    /// even though the tests of this process share one registry.
    fn front(
        name: &'static str,
        threads: usize,
        queue_depth: usize,
        handler: impl Fn(&Request, &AtomicBool) -> Reply + Send + Sync + 'static,
    ) -> Running {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let tuning = Tuning {
            name,
            threads,
            queue_depth,
            read_timeout: Duration::from_millis(200),
        };
        Running::start(listener.local_addr().unwrap(), shutdown, move || {
            let handler = Fake(|req: &Request| handler(req, &flag));
            serve(&listener, &flag, tuning, &handler)
        })
    }

    fn ok(req: &Request) -> Reply {
        Response::text(200, req.path.clone()).into()
    }

    struct Client {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
        host: String,
    }

    impl Client {
        fn connect(host: &str) -> Client {
            let writer = TcpStream::connect(host).unwrap();
            writer
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let reader = BufReader::new(writer.try_clone().unwrap());
            Client {
                writer,
                reader,
                host: host.to_string(),
            }
        }

        fn send(&mut self, path: &str) {
            write_request(&mut self.writer, "GET", path, &self.host, None).unwrap();
        }

        fn recv(&mut self) -> (u16, String) {
            let (status, body) = read_response(&mut self.reader).unwrap();
            (status, String::from_utf8(body).unwrap())
        }

        /// Whether the server has closed the connection (EOF, not a
        /// client-side timeout).
        fn closed_by_server(&mut self) -> bool {
            matches!(read_response(&mut self.reader), Err(HttpError::Closed))
        }
    }

    /// The acceptor waits for readiness, not out a nap: a connection
    /// made while it is idle is served at once (the 2 ms sleep this
    /// replaced put the median at ≈ 2 ms).
    #[test]
    fn a_fresh_connection_does_not_wait_out_a_sleep() {
        let running = front("t_fresh", 2, 8, |req, _| ok(req));
        let mut times: Vec<Duration> = (0..50)
            .map(|_| {
                let start = std::time::Instant::now();
                let mut client = Client::connect(running.host());
                client.send("/x");
                assert_eq!(client.recv(), (200, "/x".to_string()));
                start.elapsed()
            })
            .collect();
        times.sort();
        assert!(
            times[times.len() / 2] < Duration::from_millis(1),
            "median fresh-connection round trip {:?}",
            times[times.len() / 2]
        );
        running.stop().unwrap();
    }

    #[test]
    fn full_queue_sheds_inline_503() {
        let (entered_tx, entered) = mpsc::channel();
        let (release, gate) = mpsc::channel::<()>();
        let (entered_tx, gate) = (Mutex::new(entered_tx), Mutex::new(gate));
        let running = front("t_shed", 1, 1, move |req, _| {
            if req.path == "/hold" {
                entered_tx.lock().unwrap().send(()).unwrap();
                gate.lock().unwrap().recv().unwrap();
            }
            ok(req)
        });
        // A occupies the only worker; B then fills the one queue slot;
        // C finds the queue full. Accepts follow connect order.
        let mut a = Client::connect(running.host());
        a.send("/hold");
        entered.recv().unwrap();
        let mut b = Client::connect(running.host());
        let mut c = Client::connect(running.host());
        let (status, body) = c.recv();
        assert_eq!(status, 503);
        assert_eq!(body, r#"{"error":"t_shed overloaded, try again"}"#);
        assert!(c.closed_by_server());
        assert_eq!(obs::global().counter("t_shed.rejected").get(), 1);
        assert_eq!(obs::global().counter("t_shed.accepted").get(), 3);

        // Nothing that was admitted is lost.
        release.send(()).unwrap();
        assert_eq!(a.recv(), (200, "/hold".to_string()));
        drop(a);
        b.send("/b");
        assert_eq!(b.recv(), (200, "/b".to_string()));
        drop(b);
        running.stop().unwrap();
    }

    #[test]
    fn oversized_and_malformed_requests_get_an_answer_and_a_close() {
        let running = front("t_bad", 2, 8, |req, _| ok(req));
        let mut big = Client::connect(running.host());
        big.writer
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
            .unwrap();
        let (status, body) = big.recv();
        assert_eq!(status, 413);
        assert_eq!(body, r#"{"error":"request too large"}"#);
        assert!(big.closed_by_server());

        let mut bad = Client::connect(running.host());
        bad.writer
            .write_all(b"GET /x HTTP/1.1\r\nno colon here\r\n\r\n")
            .unwrap();
        let (status, body) = bad.recv();
        assert_eq!(status, 400);
        assert!(body.contains("bad header line"), "{body}");
        assert!(bad.closed_by_server());
        running.stop().unwrap();
    }

    #[test]
    fn read_timeout_drops_the_connection() {
        let running = front("t_idle", 1, 8, |req, _| ok(req));
        // Half a request, then silence: the 200 ms read timeout fires and
        // the connection is dropped without an answer.
        let mut slow = Client::connect(running.host());
        slow.writer.write_all(b"GET /x HTT").unwrap();
        let mut rest = Vec::new();
        assert_eq!(slow.reader.read_to_end(&mut rest).unwrap(), 0);
        // The worker is free again.
        let mut next = Client::connect(running.host());
        next.send("/next");
        assert_eq!(next.recv(), (200, "/next".to_string()));
        drop(next);
        running.stop().unwrap();
    }

    #[test]
    fn keep_alive_connection_closes_after_the_response_in_flight_at_shutdown() {
        let running = front("t_drain", 1, 8, |req, shutdown| {
            if req.path == "/last" {
                shutdown.store(true, Ordering::Release);
            }
            ok(req)
        });
        let mut client = Client::connect(running.host());
        client.send("/first");
        assert_eq!(client.recv(), (200, "/first".to_string()));
        client.send("/last");
        assert_eq!(client.recv(), (200, "/last".to_string()));
        assert!(client.closed_by_server());
        running.stop().unwrap();
    }

    /// With ONE worker thread, a hot keep-alive client must not starve a
    /// second connection: after `YIELD_AFTER` consecutive requests the
    /// worker re-queues the hot connection and serves the waiter.
    #[test]
    fn single_worker_round_robins_hot_connections() {
        let running = front("t_fair", 1, 8, |req, _| ok(req));
        // A claims the only worker; B sends a request and waits in the
        // queue.
        let mut a = Client::connect(running.host());
        a.send("/a");
        assert_eq!(a.recv().0, 200);
        let mut b = Client::connect(running.host());
        b.send("/b");
        // A stays hot well past the yield threshold. The worker must
        // re-queue A at some point in this loop and answer B; A's own
        // requests still all complete (the pending one is served when the
        // worker rotates back).
        for _ in 0..80 {
            a.send("/a");
            assert_eq!(a.recv().0, 200);
        }
        assert_eq!(b.recv(), (200, "/b".to_string()));
        assert!(obs::global().counter("t_fair.requeued").get() > 0);
        drop((a, b));
        running.stop().unwrap();
    }

    #[test]
    fn a_stream_reply_takes_over_the_socket() {
        let running = front("t_feed", 1, 8, |_, _| {
            Reply::Stream(Box::new(|w| {
                let _ = w.write_all(b"raw bytes, no framing");
            }))
        });
        let mut client = Client::connect(running.host());
        client.send("/feed");
        let mut all = String::new();
        client.reader.read_to_string(&mut all).unwrap();
        assert_eq!(all, "raw bytes, no framing");
        running.stop().unwrap();
    }
}
