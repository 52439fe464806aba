//! The streaming client: a viewer-side session.

use crate::protocol::{read_frame, write_frame, Chunk, Request, Schema, ServerMsg};
use bat_layout::Query;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why a request produced no result.
#[derive(Debug)]
pub enum RequestError {
    /// Transport failure; the session is no longer usable.
    Io(std::io::Error),
    /// The server's bounded queue refused the request; retry after the
    /// hint. The session stays usable and no partial data was sent.
    Busy {
        /// Server-suggested backoff.
        retry_after: Duration,
    },
    /// The server reported a typed failure (deadline expiry, bad query…).
    /// Chunks delivered before the error were discarded. The session
    /// stays usable.
    Server {
        /// One of the protocol `ERR_*` codes.
        code: u32,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The request completed *degraded*: the query opted in with
    /// `Query::allow_partial` and part of the fabric was unreachable, so
    /// the chunks streamed to `on_chunk` cover only `served_leaves` of
    /// `total_leaves` planned leaves. A distinct outcome (never folded
    /// into a successful return) so partial data can't silently pass as
    /// complete. The session stays usable.
    Partial {
        /// Points streamed to `on_chunk` before the PARTIAL frame.
        points: u64,
        /// Planned leaves actually served.
        served_leaves: u64,
        /// Leaves the plan wanted in total.
        total_leaves: u64,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "stream I/O: {e}"),
            RequestError::Busy { retry_after } => {
                write!(f, "server busy, retry after {retry_after:?}")
            }
            RequestError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            RequestError::Partial {
                points,
                served_leaves,
                total_leaves,
            } => {
                write!(
                    f,
                    "partial result: {points} points from {served_leaves}/{total_leaves} leaves"
                )
            }
        }
    }
}

impl std::error::Error for RequestError {}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> RequestError {
        RequestError::Io(e)
    }
}

/// A connected viewer session.
pub struct StreamClient {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    schema: Schema,
}

impl StreamClient {
    /// Connect and receive the dataset schema.
    pub fn connect(addr: SocketAddr) -> std::io::Result<StreamClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut reader = stream.try_clone()?;
        let writer = BufWriter::new(stream);
        let payload = read_frame(&mut reader)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed during hello",
            )
        })?;
        let schema = match ServerMsg::decode(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
        {
            ServerMsg::Schema(s) => s,
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("expected schema, got {other:?}"),
                ))
            }
        };
        Ok(StreamClient {
            reader,
            writer,
            schema,
        })
    }

    /// The dataset schema received at connect time.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Run one query, invoking `on_chunk` as batches arrive. Returns the
    /// total number of points streamed; typed failures
    /// ([`RequestError::Busy`], [`RequestError::Server`]) leave the
    /// session usable for further requests.
    pub fn request(
        &mut self,
        query: &Query,
        mut on_chunk: impl FnMut(&Chunk),
    ) -> Result<u64, RequestError> {
        let req = Request {
            query: query.clone(),
        };
        write_frame(&mut self.writer, &req.encode())?;
        use std::io::Write;
        self.writer.flush()?;

        let mut received = 0u64;
        loop {
            let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-stream",
                )
            })?;
            match ServerMsg::decode(&payload)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            {
                ServerMsg::Chunk(c) => {
                    received += c.len() as u64;
                    on_chunk(&c);
                }
                ServerMsg::Done { points } => {
                    if points != received {
                        return Err(RequestError::Io(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("server reported {points} points, received {received}"),
                        )));
                    }
                    return Ok(received);
                }
                ServerMsg::Busy { retry_after_ms } => {
                    return Err(RequestError::Busy {
                        retry_after: Duration::from_millis(retry_after_ms),
                    })
                }
                ServerMsg::Error { code, message } => {
                    return Err(RequestError::Server { code, message })
                }
                ServerMsg::Partial {
                    points,
                    served_leaves,
                    total_leaves,
                } => {
                    if points != received {
                        return Err(RequestError::Io(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("server reported {points} partial points, received {received}"),
                        )));
                    }
                    return Err(RequestError::Partial {
                        points,
                        served_leaves,
                        total_leaves,
                    });
                }
                ServerMsg::Schema(_) => {
                    return Err(RequestError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "unexpected schema mid-session",
                    )))
                }
            }
        }
    }

    /// As [`StreamClient::request`], but honoring the backpressure
    /// contract: on [`RequestError::Busy`] the client sleeps the hinted
    /// delay and resubmits, up to `max_retries` times.
    pub fn request_with_retry(
        &mut self,
        query: &Query,
        max_retries: usize,
        mut on_chunk: impl FnMut(&Chunk),
    ) -> Result<u64, RequestError> {
        let mut attempts = 0;
        loop {
            match self.request(query, &mut on_chunk) {
                Err(RequestError::Busy { retry_after }) if attempts < max_retries => {
                    attempts += 1;
                    std::thread::sleep(retry_after);
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::StreamServer;
    use bat_comm::Cluster;
    use bat_geom::{Aabb, Vec3};
    use bat_workloads::{uniform, RankGrid};
    use libbat::write::{write_particles, WriteConfig};
    use libbat::Dataset;

    pub(crate) fn make_dataset(tag: &str, per_rank: u64) -> (std::path::PathBuf, u64) {
        let dir = std::env::temp_dir().join(format!("bat-stream-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let n = 4;
        let grid = RankGrid::new_3d(n, Aabb::unit());
        let d = dir.clone();
        Cluster::run(n, move |comm| {
            let set = uniform::generate_rank(&grid, comm.rank(), per_rank, 5);
            let cfg = WriteConfig::with_target_size(100_000, set.bytes_per_particle() as u64);
            write_particles(&comm, set, grid.bounds_of(comm.rank()), &cfg, &d, "s").unwrap();
        });
        (dir, per_rank * n as u64)
    }

    fn start(dir: &std::path::Path) -> crate::ServerHandle {
        let ds = Dataset::open(dir, "s").unwrap();
        StreamServer::bind("127.0.0.1:0", ds)
            .unwrap()
            .spawn()
            .unwrap()
    }

    #[test]
    fn full_stream_matches_dataset() {
        let (dir, total) = make_dataset("full", 3000);
        let handle = start(&dir);
        let mut client = StreamClient::connect(handle.addr()).unwrap();
        assert_eq!(client.schema().total_particles, total);
        assert_eq!(client.schema().descs.len(), 14);
        let mut points = 0u64;
        let mut chunks = 0;
        let n = client
            .request(&Query::new(), |c| {
                points += c.len() as u64;
                chunks += 1;
                assert!(c.len() <= crate::CHUNK_POINTS);
                assert_eq!(c.num_attrs, 14);
            })
            .unwrap();
        assert_eq!(n, total);
        assert_eq!(points, total);
        assert!(chunks >= 2, "expected multiple chunks, got {chunks}");
        drop(client);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progressive_session_partitions_data() {
        let (dir, total) = make_dataset("prog", 2500);
        let handle = start(&dir);
        let mut client = StreamClient::connect(handle.addr()).unwrap();
        // The Fig. 4 viewer loop: quality sweep with progressive baselines.
        let mut received = 0u64;
        let mut prev = 0.0;
        for i in 1..=5 {
            let q = i as f64 / 5.0;
            received += client
                .request(
                    &Query::new().with_prev_quality(prev).with_quality(q),
                    |_| {},
                )
                .unwrap();
            prev = q;
        }
        assert_eq!(received, total);
        drop(client);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spatial_and_attribute_filtering_served() {
        let (dir, _) = make_dataset("filter", 2000);
        let ds = Dataset::open(&dir, "s").unwrap();
        let qb = Aabb::new(Vec3::ZERO, Vec3::splat(0.5));
        let q = Query::new().with_bounds(qb).with_filter(0, -0.5, 0.5);
        let expect = ds.count(&q).unwrap();

        let handle = start(&dir);
        let mut client = StreamClient::connect(handle.addr()).unwrap();
        let mut ok = true;
        let got = client
            .request(&q, |c| {
                for (i, p) in c.positions.iter().enumerate() {
                    ok &= qb.contains_point(*p);
                    let v = c.attr(i, 0);
                    ok &= (-0.5..=0.5).contains(&v);
                }
            })
            .unwrap();
        assert!(ok, "streamed points must satisfy the filters");
        assert_eq!(got, expect);
        drop(client);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_clients() {
        let (dir, total) = make_dataset("multi", 1500);
        let handle = start(&dir);
        let addr = handle.addr();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = StreamClient::connect(addr).unwrap();
                    client.request(&Query::new(), |_| {}).unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), total);
        }
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequential_requests_reuse_connection() {
        let (dir, total) = make_dataset("seq", 1000);
        let handle = start(&dir);
        let mut client = StreamClient::connect(handle.addr()).unwrap();
        for _ in 0..3 {
            assert_eq!(client.request(&Query::new(), |_| {}).unwrap(), total);
        }
        drop(client);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
