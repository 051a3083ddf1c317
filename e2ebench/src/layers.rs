//! Benchmark-side wrappers that time calls into a layer without changing
//! what the layer does: a [`Service`] wrapper for the RA status endpoint
//! and the CDN edge, and a [`Transport`] wrapper that measures the wire
//! part of an RA sync.

use crate::trace;
use ritm_agent::StatusServer;
use ritm_net::time::SimDuration;
use ritm_proto::message::RequestEnvelope;
use ritm_proto::{Frame, RitmRequest, RitmResponse, RoundTrip, Service, Transport, TransportError};
use std::sync::Arc;
use std::time::Instant;

/// Which layer a [`Traced`] service stands for.
pub enum Layer {
    /// The RA status endpoint; the server's encoded-response cache
    /// counters classify each call as a hit or a miss.
    Serve(Arc<StatusServer>),
    /// The CDN edge.
    Edge,
}

/// Forwards every [`Service`] method to `inner` and, while tracing is on,
/// records one span per served frame. The zero-copy entry points
/// (`serve_frame`/`serve_envelope`) are forwarded as such, so the path
/// measured is the one the server takes without the wrapper.
pub struct Traced<S> {
    inner: S,
    layer: Layer,
}

impl<S: Service> Traced<S> {
    /// Wraps `inner` as `layer`.
    pub fn new(inner: S, layer: Layer) -> Self {
        Traced { inner, layer }
    }

    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        if !trace::enabled() {
            return call();
        }
        let before = self.cache_counts();
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let name = match (&self.layer, before, self.cache_counts()) {
            (Layer::Edge, _, _) => "cdn.edge",
            (Layer::Serve(_), Some((h0, m0)), Some((h1, m1))) => match (h1 - h0, m1 - m0) {
                (1, 0) => "serve.hit",
                (0, 1) => "serve.miss",
                // Another thread's request moved the shared counters
                // meanwhile (or the request bypassed the cache): the call
                // cannot be attributed.
                _ => "serve.unattributed",
            },
            (Layer::Serve(_), _, _) => "serve.unattributed",
        };
        trace::record(name, trace::next_id(), 0, start, end);
        out
    }

    /// Encoded-cache (hits, misses) summed over the single and chain
    /// caches.
    fn cache_counts(&self) -> Option<(u64, u64)> {
        match &self.layer {
            Layer::Serve(server) => {
                let single = server.encoded_cache_stats();
                let multi = server.encoded_multi_cache_stats();
                Some((single.hits + multi.hits, single.misses + multi.misses))
            }
            Layer::Edge => None,
        }
    }
}

impl<S: Service> Service for Traced<S> {
    fn handle(&self, req: RitmRequest) -> RitmResponse {
        self.timed(|| self.inner.handle(req))
    }

    fn take_latency(&self) -> SimDuration {
        self.inner.take_latency()
    }

    fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        self.timed(|| self.inner.handle_frame(frame))
    }

    fn handle_envelope(&self, env: RequestEnvelope) -> Vec<u8> {
        self.timed(|| self.inner.handle_envelope(env))
    }

    fn serve_frame(&self, frame: &[u8]) -> Frame {
        self.timed(|| self.inner.serve_frame(frame))
    }

    fn serve_envelope(&self, env: RequestEnvelope) -> Frame {
        self.timed(|| self.inner.serve_envelope(env))
    }
}

/// A [`Transport`] that, while tracing is on, records each flight as a
/// `sync.wire` span under the parent set by
/// [`TracedTransport::set_parent`] — the wire part of the sync driving it.
pub struct TracedTransport<T> {
    inner: T,
    parent: u64,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        TracedTransport { inner, parent: 0 }
    }

    /// The span later flights are recorded under.
    pub fn set_parent(&mut self, parent: u64) {
        self.parent = parent;
    }

    fn timed<R>(&mut self, call: impl FnOnce(&mut T) -> R) -> R {
        let start = trace::start();
        let out = call(&mut self.inner);
        trace::finish("sync.wire", self.parent, start);
        out
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn round_trip(&mut self, req: &RitmRequest) -> Result<RoundTrip, TransportError> {
        self.timed(|t| t.round_trip(req))
    }

    fn round_trip_many(&mut self, reqs: &[RitmRequest]) -> Vec<Result<RoundTrip, TransportError>> {
        self.timed(|t| t.round_trip_many(reqs))
    }
}
