//! The stream front-end: one accept loop and one session loop for every
//! TCP client, whatever executes its requests (DESIGN.md §12).
//!
//! A session thread executes its own requests, but only while it holds a
//! permit of the front's shared [`ServePool`] gate, so total query
//! concurrency is the gate's `workers` no matter how many clients
//! connect, and a request never leaves the thread that read it: the
//! executor's chunk frames go straight into the session's socket writer.
//! A full wait line surfaces to the client as `Busy { retry_after }`, a
//! deadline or execution failure as a typed `Error`; both leave the
//! session open. What runs under the permit is an [`Executor`]: the
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
    /// gets a session thread that reads requests and executes them under
    /// the shared admission gate. Session threads are tracked and joined
    /// on shutdown.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        spawn_front(self.listener, self.dataset, &self.options)
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections, drain the admission gate (in-flight and
    /// waiting requests finish, later ones are answered `Busy`), and join
    /// every session thread.
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

/// What executes a request behind the front-end, on the session thread.
pub(crate) trait Executor: Send + Sync + 'static {
    /// The dataset served (for the session's schema preamble).
    fn dataset(&self) -> &Dataset;

    /// Run `query` against `deadline`, handing every chunk to `sink` as
    /// its encoded frame payload ([`Chunk::encode_frame`]) and point
    /// count, and return the frame that ends the request: `Done`,
    /// `Partial` or a typed `Error`.
    fn execute(
        &self,
        query: &Query,
        deadline: Option<Instant>,
        sink: &mut dyn FnMut(&[u8], usize),
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

/// Fill-and-flush accumulator turning a point stream into bounded,
/// *encoded* chunks: a chunk is emitted — as the frame payload a client
/// receives, with its point count — the moment it holds [`CHUNK_POINTS`]
/// points, and [`ChunkBuilder::flush`] emits the partial remainder. This
/// is the one place a chunk is encoded, on the thread that filled it.
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

    pub(crate) fn push(&mut self, p: &PointRecord<'_>, emit: &mut dyn FnMut(Vec<u8>, usize)) {
        self.chunk.positions.push(p.position);
        self.chunk.attrs.extend_from_slice(p.attrs);
        if self.chunk.len() == CHUNK_POINTS {
            self.flush(emit);
        }
    }

    pub(crate) fn flush(&mut self, emit: &mut dyn FnMut(Vec<u8>, usize)) {
        if !self.chunk.is_empty() {
            bat_obs::counter_add("stream.chunks_encoded", 1);
            emit(self.chunk.encode_frame(), self.chunk.len());
            self.chunk.positions.clear();
            self.chunk.attrs.clear();
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
        sink: &mut dyn FnMut(&[u8], usize),
    ) -> ServerMsg {
        // Cache admission follows the query class: interactive reads may
        // evict bulk pages, never the other way around.
        let _prio = cache::set_thread_priority(query_priority(query));
        let mut chunks = ChunkBuilder::new(self.descs().len());
        let mut emit = |frame: Vec<u8>, points| sink(&frame, points);
        // The `serve.exec` failpoint: `delay:MS` stalls execution under
        // the permit — after the deadline clock started — which is how
        // the fault suite proves deadlines fire.
        let result = bat_faults::fire_io("serve.exec")
            .map_err(ServeError::Io)
            .and_then(|()| QueryPlan::new(self, query))
            .and_then(|plan| plan.execute(deadline, |p| chunks.push(&p, &mut emit)));
        match result {
            Ok(stats) => {
                chunks.flush(&mut emit);
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

/// Shared serving context: the executor, the admission gate, and the
/// deadline policy every session applies.
struct FrontCtx {
    exec: Arc<dyn Executor>,
    gate: ServePool,
    deadline: Option<Duration>,
}

/// Start the front-end on `listener`: an accept thread handing each
/// connection to a [`session`] thread — the only threads a front owns —
/// all sharing one gate that bounds how many run `exec` at once.
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
        gate: ServePool::new(options.pool_config()),
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
        // Requests already admitted or waiting finish; sessions still
        // connected are answered `Busy` until their clients leave.
        ctx.gate.drain();
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

        // The deadline covers the wait for a permit + execution: it
        // starts when the request is submitted, not when it is admitted.
        let deadline = ctx.deadline.map(|d| Instant::now() + d);
        let permit = match ctx.gate.admit() {
            Ok(permit) => permit,
            Err(rejected) => {
                let retry_after_ms = rejected.retry_after.as_millis() as u64;
                let busy = ServerMsg::Busy { retry_after_ms }.encode();
                write_frame(&mut writer, &busy)?;
                writer.flush()?;
                bat_obs::counter_add("stream.bytes_sent", busy.len() as u64);
                continue;
            }
        };

        // Chunk frames go from the executor into this session's writer.
        // The executor cannot be stopped half-way: once the client is
        // gone (a write failed) its remaining chunks are dropped, and
        // the failure ends the session after the permit is back.
        let (mut bytes_out, mut points) = (0u64, 0u64);
        let mut client_gone = None;
        let end = ctx.exec.execute(&request.query, deadline, &mut |frame, n| {
            if client_gone.is_none() {
                bytes_out += frame.len() as u64;
                points += n as u64;
                client_gone = write_frame(&mut writer, frame).err();
            }
        });
        drop(permit);
        if let Some(e) = client_gone {
            return Err(e);
        }
        let end = end.encode();
        write_frame(&mut writer, &end)?;
        writer.flush()?;
        bat_obs::counter_add("stream.requests", 1);
        bat_obs::counter_add("stream.bytes_sent", bytes_out + end.len() as u64);
        bat_obs::counter_add("stream.points_sent", points);
    }
    Ok(())
}
