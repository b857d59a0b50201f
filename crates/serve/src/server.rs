//! The TCP server: accept loop + crossbeam scoped worker pool.
//!
//! A fixed pool of scoped workers ([`crossbeam::thread::scope`], the
//! workspace's one sanctioned parallelism primitive) pulls accepted
//! connections off an in-process queue, and the accept loop runs in the
//! calling thread. [`Server::run`] therefore blocks until a
//! [`ShutdownHandle`] fires; [`Server::spawn_background`] wraps it in a
//! detached thread for tests, the load generator, and anything else that
//! needs a live server without owning a thread of its own.
//!
//! Shutdown is cooperative: the handle flips an [`AtomicBool`] and opens a
//! throwaway connection to the listener, which unblocks `accept` so the
//! loop observes the flag. The run loop then closes every in-flight
//! connection (each worker registers the socket it is serving), the queue's
//! sender side drops, and workers drain and exit — so `run` returns
//! promptly even when clients are idle inside their read timeout.

use crate::metrics::ServeMetrics;
use crate::protocol;
use obs::WorkerTracer;
use snapshot::Snapshot;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Longest request line the server reads, excluding its newline. A client
/// that sends more without a newline is answered `line too long` and
/// disconnected, so no connection can grow the read buffer without bound.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// In-flight connections, keyed by an id so a worker can deregister the
/// exact socket it finished with. Closed wholesale at shutdown.
#[derive(Default)]
struct ActiveConns {
    next_id: AtomicU64,
    closing: AtomicBool,
    conns: Mutex<BTreeMap<u64, TcpStream>>,
}

impl ActiveConns {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut conns = self.conns.lock().expect("conn registry lock");
        if self.closing.load(Ordering::SeqCst) {
            // close_all already swept: a connection dequeued during the
            // race would otherwise idle until its read timeout.
            let _ = clone.shutdown(Shutdown::Both);
            return None;
        }
        conns.insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.conns.lock().expect("conn registry lock").remove(&id);
        }
    }

    fn close_all(&self) {
        let conns = self.conns.lock().expect("conn registry lock");
        self.closing.store(true, Ordering::SeqCst);
        for conn in conns.values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// Tuning knobs for [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Per-connection read timeout; an idle client is disconnected after
    /// this long so it cannot pin a worker.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// A remote control for a running server: thread-safe, cheap to clone.
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Asks the server to stop accepting and drain. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept loop so it observes the flag; if the
        // listener is already gone the connect just fails, which is fine.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound (but not yet running) query server over a loaded snapshot.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    snapshot: Arc<Snapshot>,
    cfg: ServerConfig,
    rec: obs::Recorder,
    metrics: ServeMetrics,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds a listener. `addr` may be `"127.0.0.1:0"` to let the OS pick a
    /// port — read it back with [`Server::local_addr`].
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        snapshot: Arc<Snapshot>,
        cfg: ServerConfig,
        rec: obs::Recorder,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            local_addr,
            snapshot,
            cfg,
            rec,
            metrics: ServeMetrics::new(),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can stop this server from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
            addr: self.local_addr,
        }
    }

    /// Serves until the shutdown handle fires. The accept loop runs in the
    /// calling thread; connections are handled by `cfg.workers` scoped
    /// workers fed through an in-process queue.
    pub fn run(&self) -> io::Result<()> {
        let workers = self.cfg.workers.max(1);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        // The vendored crossbeam subset has scoped threads but no channels;
        // a mutex-wrapped std receiver gives the same work-queue shape.
        let rx = Mutex::new(rx);
        let active = ActiveConns::default();
        #[expect(
            clippy::disallowed_methods,
            reason = "request-serving parallelism, not inference; the worker pool only moves \
                      bytes between sockets and a read-only snapshot, so scheduling cannot \
                      reach any pipeline output"
        )]
        crossbeam::thread::scope(|s| {
            let (rx, active) = (&rx, &active);
            for w in 0..workers {
                s.spawn(move |_| self.worker_loop(w, rx, active));
            }
            self.accept_loop(&tx);
            drop(tx); // workers drain the queue, then their recv errors out
            active.close_all(); // unblock workers parked in idle reads
        })
        .expect("serve worker panicked");
        Ok(())
    }

    fn accept_loop(&self, tx: &mpsc::Sender<TcpStream>) {
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break; // the nudge connection (or any later one) is dropped
            }
            match conn {
                Ok(stream) => {
                    self.rec.add_exec(obs::names::EXEC_SERVE_CONNECTIONS, 1);
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(_) => self.rec.add_exec(obs::names::EXEC_SERVE_ERRORS, 1),
            }
        }
    }

    fn worker_loop(&self, w: usize, rx: &Mutex<mpsc::Receiver<TcpStream>>, active: &ActiveConns) {
        let tracer = self.rec.tracer();
        let mut wt = tracer.worker(obs::names::TRACK_SERVE_WORKER, w);
        loop {
            let conn = match rx.lock() {
                Ok(guard) => guard.recv(),
                Err(_) => break,
            };
            match conn {
                Ok(stream) => {
                    let id = active.register(&stream);
                    self.handle_connection(stream, &mut wt);
                    active.deregister(id);
                    if self.stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(_) => break, // sender dropped: shutdown
            }
        }
        tracer.submit(wt);
    }

    /// Serves one persistent connection: request line in, response line
    /// out, until EOF, a read timeout, an I/O error, or a request line
    /// longer than [`MAX_REQUEST_BYTES`].
    fn handle_connection(&self, stream: TcpStream, wt: &mut WorkerTracer) {
        // NODELAY matters: the protocol is small request/response lines, and
        // Nagle + delayed ACK turns each into a ~40 ms round trip.
        let _ = stream.set_nodelay(true);
        if stream
            .set_read_timeout(Some(self.cfg.read_timeout))
            .is_err()
        {
            self.rec.add_exec(obs::names::EXEC_SERVE_ERRORS, 1);
            return;
        }
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => {
                self.rec.add_exec(obs::names::EXEC_SERVE_ERRORS, 1);
                return;
            }
        };
        let mut reader = BufReader::new(stream);
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let limit = MAX_REQUEST_BYTES as u64 + 1;
            match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(_) => {
                    // Timeout or broken pipe: count it and give the worker
                    // back to the pool.
                    self.rec.add_exec(obs::names::EXEC_SERVE_ERRORS, 1);
                    return;
                }
            }
            if buf.last() == Some(&b'\n') {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
            } else if buf.len() > MAX_REQUEST_BYTES {
                self.rec.add_exec(obs::names::EXEC_SERVE_ERRORS, 1);
                let mut text = serde_json::to_string(&protocol::Response::error("line too long"))
                    .expect("response serializes");
                text.push('\n');
                let _ = writer.write_all(text.as_bytes());
                let _ = writer.shutdown(Shutdown::Write);
                return;
            }
            let Ok(line) = std::str::from_utf8(&buf) else {
                self.rec.add_exec(obs::names::EXEC_SERVE_ERRORS, 1);
                return;
            };
            if line.trim().is_empty() {
                continue;
            }
            self.rec.add_exec(obs::names::EXEC_SERVE_REQUESTS, 1);
            let t0 = self.metrics.begin();
            wt.begin(obs::names::EV_SERVE_REQUEST, line.len() as u64);
            let (verb, resp) = match protocol::parse_line(line) {
                Ok(req) => {
                    let verb = obs::names::serve_verb(&req.cmd);
                    let mut resp = protocol::dispatch(&self.snapshot, &req);
                    if let Some(stats) = resp.stats.as_mut() {
                        // Only a live server can answer uptime/latency; the
                        // pure dispatch path leaves these fields absent.
                        self.metrics.fill(stats);
                    }
                    (verb, resp)
                }
                Err(e) => (None, *e),
            };
            wt.end(obs::names::EV_SERVE_REQUEST);
            if let Some(verb) = verb {
                self.metrics.observe(verb, t0);
                if let Some(counter) = obs::names::serve_request_counter(verb) {
                    self.rec.add_exec(counter, 1);
                }
            }
            if !resp.ok {
                self.rec.add_exec(obs::names::EXEC_SERVE_ERRORS, 1);
            }
            let mut text = serde_json::to_string(&resp).expect("response serializes");
            text.push('\n'); // one write → one segment; never split the line
            if writer.write_all(text.as_bytes()).is_err() {
                self.rec.add_exec(obs::names::EXEC_SERVE_ERRORS, 1);
                return;
            }
        }
    }

    /// Runs the server on a detached thread and returns its remote control.
    /// This is the one place the serve stack detaches a thread, so tests
    /// and the load generator can host a live server without carrying
    /// threading allowances of their own.
    pub fn spawn_background(self) -> RunningServer {
        let handle = self.shutdown_handle();
        let addr = self.local_addr;
        #[expect(
            clippy::disallowed_methods,
            reason = "hosts the blocking accept loop behind a joinable handle; serving threads \
                      never touch inference state, and RunningServer::shutdown joins before \
                      returning"
        )]
        let join = std::thread::spawn(move || {
            let _ = self.run();
        });
        RunningServer { handle, addr, join }
    }
}

/// A server running on a background thread (see [`Server::spawn_background`]).
#[derive(Debug)]
pub struct RunningServer {
    handle: ShutdownHandle,
    addr: SocketAddr,
    join: std::thread::JoinHandle<()>,
}

impl RunningServer {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clonable shutdown handle.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.handle.clone()
    }

    /// Stops the server and joins its thread.
    pub fn shutdown(self) {
        self.handle.shutdown();
        let _ = self.join.join();
    }
}
