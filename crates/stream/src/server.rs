//! The stream front-end: one accept loop, one session loop and one reply
//! relay for every TCP client, whatever executes its requests
//! (DESIGN.md §12).
//!
//! Sessions do not *execute* queries — they submit them to a shared
//! [`ServePool`] and relay the resulting chunks, so total query
//! concurrency is the pool's worker count no matter how many clients
//! connect. A full queue surfaces to the client as `Busy { retry_after }`,
//! a deadline or execution failure as a typed `Error`; both leave the
//! session open. What runs on the pool worker is an [`Executor`]: the
//! in-process planner behind [`StreamServer`], or a shard fan-out behind
//! [`crate::ShardFront`].

use crate::protocol::{
    read_frame, write_frame, Chunk, Request, Schema, ServerMsg, CHUNK_POINTS, ERR_BAD_QUERY,
    ERR_DEADLINE, ERR_INTERNAL,
};
use bat_layout::{PointRecord, Query};
use bat_serve::{cache, query_priority, QueryPlan, ServeError, ServeOptions, ServePool};
use libbat::Dataset;
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A bound but not yet running server.
pub struct StreamServer {
    listener: TcpListener,
    dataset: Arc<Dataset>,
    options: ServeOptions,
}

/// Control handle for a running front-end.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl StreamServer {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) serving
    /// `dataset` with the default serving options.
    pub fn bind(addr: &str, dataset: Dataset) -> std::io::Result<StreamServer> {
        StreamServer::bind_with(addr, dataset, ServeOptions::default())
    }

    /// Bind with explicit serving options (worker count, queue depth,
    /// per-query deadline, dataset-private cache).
    pub fn bind_with(
        addr: &str,
        dataset: Dataset,
        options: ServeOptions,
    ) -> std::io::Result<StreamServer> {
        let listener = TcpListener::bind(addr)?;
        if let Some(c) = &options.cache {
            dataset.set_cache(Some(c.clone()));
        }
        Ok(StreamServer {
            listener,
            dataset: Arc::new(dataset),
            options,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start accepting connections on a background thread. Each connection
    /// gets a session thread that reads requests and relays replies;
    /// query execution happens on the shared bounded pool. Session
    /// threads are tracked and joined on shutdown.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        spawn_front(self.listener, self.dataset, &self.options)
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections, join every session thread, and drain
    /// the worker pool. In-flight requests finish.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept; the accept loop re-checks the stop
        // flag before serving the connection. If the connect fails the
        // listener is already gone and the loop has exited.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            t.join().ok();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// What executes a request behind the front-end, on a pool worker.
pub(crate) trait Executor: Send + Sync + 'static {
    /// The dataset served (for the session's schema preamble).
    fn dataset(&self) -> &Dataset;

    /// Run `query` against `deadline`, handing every chunk to `sink`, and
    /// return the frame that ends the request: `Done`, `Partial` or a
    /// typed `Error`.
    fn execute(
        &self,
        query: &Query,
        deadline: Option<Instant>,
        sink: &mut dyn FnMut(Chunk),
    ) -> ServerMsg;
}

/// The `ERR_*` code a [`ServeError`] travels under.
pub(crate) fn error_code(e: &ServeError) -> u32 {
    match e {
        ServeError::DeadlineExpired { .. } => ERR_DEADLINE,
        ServeError::Query(_) => ERR_BAD_QUERY,
        ServeError::Io(_) | ServeError::Wire(_) => ERR_INTERNAL,
    }
}

/// Fill-and-flush accumulator turning a point stream into bounded
/// [`Chunk`]s: a chunk is emitted the moment it holds [`CHUNK_POINTS`]
/// points, and [`ChunkBuilder::flush`] emits the partial remainder.
pub(crate) struct ChunkBuilder {
    chunk: Chunk,
}

impl ChunkBuilder {
    pub(crate) fn new(num_attrs: usize) -> ChunkBuilder {
        ChunkBuilder {
            chunk: Chunk {
                positions: Vec::with_capacity(CHUNK_POINTS),
                attrs: Vec::with_capacity(CHUNK_POINTS * num_attrs),
                num_attrs,
            },
        }
    }

    pub(crate) fn push(&mut self, p: &PointRecord<'_>, emit: &mut dyn FnMut(Chunk)) {
        self.chunk.positions.push(p.position);
        self.chunk.attrs.extend_from_slice(p.attrs);
        if self.chunk.len() == CHUNK_POINTS {
            self.flush(emit);
            self.chunk.positions.reserve(CHUNK_POINTS);
        }
    }

    pub(crate) fn flush(&mut self, emit: &mut dyn FnMut(Chunk)) {
        if !self.chunk.is_empty() {
            let num_attrs = self.chunk.num_attrs;
            emit(std::mem::take(&mut self.chunk));
            self.chunk.num_attrs = num_attrs;
        }
    }
}

/// The single-process executor: plan and run on this process's dataset.
impl Executor for Dataset {
    fn dataset(&self) -> &Dataset {
        self
    }

    fn execute(
        &self,
        query: &Query,
        deadline: Option<Instant>,
        sink: &mut dyn FnMut(Chunk),
    ) -> ServerMsg {
        // Cache admission follows the query class: interactive reads may
        // evict bulk pages, never the other way around.
        let _prio = cache::set_thread_priority(query_priority(query));
        let mut chunks = ChunkBuilder::new(self.descs().len());
        // The `serve.exec` failpoint: `delay:MS` stalls execution on the
        // worker — after the deadline clock started — which is how the
        // fault suite proves deadlines fire.
        let result = bat_faults::fire_io("serve.exec")
            .map_err(ServeError::Io)
            .and_then(|()| QueryPlan::new(self, query))
            .and_then(|plan| plan.execute(deadline, |p| chunks.push(&p, sink)));
        match result {
            Ok(stats) => {
                chunks.flush(sink);
                ServerMsg::Done {
                    points: stats.points_returned,
                }
            }
            Err(e) => ServerMsg::Error {
                code: error_code(&e),
                message: e.to_string(),
            },
        }
    }
}

/// Shared serving context: the executor, the worker pool, and the
/// deadline policy every session applies.
struct FrontCtx {
    exec: Arc<dyn Executor>,
    pool: ServePool,
    deadline: Option<Duration>,
}

/// Start the front-end on `listener`: an accept thread handing each
/// connection to a [`session`] thread, all sharing one bounded pool that
/// runs requests through `exec`.
pub(crate) fn spawn_front(
    listener: TcpListener,
    exec: Arc<dyn Executor>,
    options: &ServeOptions,
) -> std::io::Result<ServerHandle> {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    let stop2 = stop.clone();
    let ctx = Arc::new(FrontCtx {
        exec,
        pool: ServePool::new(options.pool_config()),
        deadline: options.deadline,
    });
    let thread = std::thread::spawn(move || {
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        // Blocking accept: the loop sleeps in the kernel until a
        // connection arrives. Shutdown wakes it with a self-connect
        // (see ServerHandle::stop_and_join), observed via the stop
        // flag before the connection is served.
        while let Ok((stream, _)) = listener.accept() {
            if stop2.load(Ordering::Acquire) {
                break;
            }
            let ctx = ctx.clone();
            sessions.push(std::thread::spawn(move || {
                // A failed session only affects that client.
                let _ = session(stream, &ctx);
            }));
            // Opportunistically reap finished sessions so a
            // long-lived server doesn't accumulate handles.
            sessions.retain(|s| !s.is_finished());
        }
        // Join every live session: their in-flight pool jobs finish
        // because the pool drains only after this (ctx drop).
        for s in sessions {
            s.join().ok();
        }
    });
    Ok(ServerHandle {
        stop,
        addr,
        thread: Some(thread),
    })
}

/// Serve one client session: schema first, then request/stream cycles until
/// the client disconnects.
fn session(stream: TcpStream, ctx: &FrontCtx) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);

    // Session preamble: the schema.
    let ds = ctx.exec.dataset();
    let schema = ServerMsg::Schema(Schema {
        descs: ds.descs().to_vec(),
        total_particles: ds.num_particles(),
    });
    write_frame(&mut writer, &schema.encode())?;
    writer.flush()?;

    while let Some(payload) = read_frame(&mut reader)? {
        // The `stream.serve` failpoint: `delay:MS` injects per-request
        // latency (the sleep happens inside `fire`), any other action
        // fails the session — the client observes a clean disconnect
        // mid-request, never a torn frame parsed as data.
        bat_faults::fire_io("stream.serve")?;
        let _req_span = bat_obs::span("stream.request_ns");
        let request = Request::decode(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;

        // The deadline covers queue wait + execution: it starts when the
        // request is submitted, not when a worker picks it up.
        let deadline = ctx.deadline.map(|d| Instant::now() + d);
        let (tx, rx) = mpsc::sync_channel::<ServerMsg>(4);
        let exec = ctx.exec.clone();
        let submitted = ctx.pool.submit(move || {
            // Sends fail only when the session died; the executor still
            // runs to its end, but there is nobody left to tell.
            let mut session_gone = false;
            let end = exec.execute(&request.query, deadline, &mut |c| {
                session_gone = session_gone || tx.send(ServerMsg::Chunk(c)).is_err();
            });
            if !session_gone {
                let _ = tx.send(end);
            }
        });
        if let Err(rejected) = submitted {
            let retry_after_ms = rejected.retry_after.as_millis() as u64;
            let busy = ServerMsg::Busy { retry_after_ms }.encode();
            write_frame(&mut writer, &busy)?;
            writer.flush()?;
            bat_obs::counter_add("stream.bytes_sent", busy.len() as u64);
            continue;
        }

        // Relay worker replies to the socket. The channel closes when the
        // worker is done with the request, whatever the outcome.
        let (mut bytes_out, mut points) = (0u64, 0u64);
        for reply in rx {
            if let ServerMsg::Chunk(c) = &reply {
                points += c.len() as u64;
            }
            let encoded = reply.encode();
            bytes_out += encoded.len() as u64;
            write_frame(&mut writer, &encoded)?;
        }
        writer.flush()?;
        bat_obs::counter_add("stream.requests", 1);
        bat_obs::counter_add("stream.bytes_sent", bytes_out);
        bat_obs::counter_add("stream.points_sent", points);
    }
    Ok(())
}
