//! `charles-serve` — the concurrent advisory server.
//!
//! The paper frames Charles as an interactive advisor guiding many
//! analysts through drill-down sessions; this crate is the serving
//! layer that makes that multi-tenant: sessions become server-side
//! state addressed by id, and contexts become **cache keys shared
//! across users** — N concurrent sessions drilling into the same region
//! of the data pay for one HB-cuts run
//! ([`charles_core::AdviceCache`]).
//!
//! Everything is dependency-free by necessity (crates.io is unreachable
//! in this build environment): a std `TcpListener` accept loop feeding
//! a [`charles_parallel::WorkerPool`], a hand-rolled HTTP/1.1 request
//! parser ([`http`]), and a deterministic JSON encoder ([`json`]) for
//! `Advice`/`Ranked`/`Trace` payloads. A versioned, length-prefixed
//! binary protocol ([`wire`]) can be served on a second listener for
//! pipelined high-throughput clients; both listeners dispatch through
//! the same API layer, so they differ only in framing.
//!
//! Determinism contract: served advice — cached or not, under any
//! interleaving — is byte-identical to
//! `Advisor::advise(context.canonicalized())` on the same backend and
//! config, encoded with [`json::encode_advice`]. The multi-session
//! concurrency harness (`tests/serve_concurrency.rs` at the workspace
//! root) pins this against a single-threaded oracle.
//!
//! ```no_run
//! use charles_serve::{Server, ServeConfig, http_request};
//! use std::sync::Arc;
//!
//! # fn table() -> charles_store::Table { unimplemented!() }
//! let backend: Arc<dyn charles_store::Backend> = Arc::new(table());
//! let server = Server::bind("127.0.0.1:0", backend, ServeConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.spawn().unwrap();
//! let (status, body) = http_request(addr, "POST", "/session", "(type: , tonnage: )").unwrap();
//! assert_eq!(status, 201);
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod wire;

pub use client::{http_request, Client, ClientConfig, Response};
pub use http::{Method, Request};
pub use server::{MetricsSnapshot, ServeConfig, Server, ServerHandle, ServerMetrics};
pub use wire::{wire_request, WireConn, WireError, WireRequest, WireResponse, WireSummary};
