//! The status read path under load: the reader loop shared by
//! `status_pull` and `revocation_churn`, and the revocation-to-enforcement
//! cycle both run.

use crate::oracle::{payload_matches, RankMap, Universe, Zipf};
use crate::report::Report;
use crate::trace;
use crate::world::{probe_revoked, World, DELTA};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ritm_client::{validate_payload_tracked, RootTracker, Verdict};
use ritm_crypto::ed25519::VerifyingKey;
use ritm_dictionary::{CaId, SerialNumber};
use ritm_proto::event::EventTransport;
use ritm_proto::{RitmRequest, RitmResponse, StatusPayload, Transport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests kept in flight on one connection.
pub const FLIGHT: usize = 16;
/// One request in this many is a 3-serial `GetMultiStatus` chain.
const MULTI_EVERY: u32 = 8;
const CHAIN_LEN: usize = 3;
/// Every this-many-th reply is fully validated (signature, proof,
/// freshness, root tracking); the rest get the cheap claim check.
const VALIDATE_EVERY: u64 = 64;
/// Zipf exponent of serial popularity.
const ZIPF_S: f64 = 1.0;

/// What readers ask for: Zipf popularity ranks mapped onto the universe.
pub struct ReadMix {
    zipf: Zipf,
    map: RankMap,
}

impl ReadMix {
    /// The mix for `seed` over `universe`.
    pub fn new(universe: Universe, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2a2a);
        ReadMix {
            zipf: Zipf::new(universe.size(), ZIPF_S),
            map: RankMap::new(universe.size(), &mut rng),
        }
    }

    fn serial(&self, rng: &mut StdRng) -> SerialNumber {
        SerialNumber::from_u24(self.map.value(self.zipf.sample(rng)))
    }
}

/// What a reader needs to know about the world.
#[derive(Clone)]
pub struct ReaderCtx {
    /// The CA every serial belongs to.
    pub ca: CaId,
    /// Pinned CA keys.
    pub keys: HashMap<CaId, VerifyingKey>,
    /// Ground truth.
    pub universe: Universe,
    /// Request mix.
    pub mix: Arc<ReadMix>,
    /// Simulated time replies are validated at.
    pub sim_now: Arc<AtomicU64>,
    /// The shared runtime's reactor (parked-task sampling while traced).
    pub reactor: Arc<ritm_rt::Reactor>,
}

impl ReaderCtx {
    /// The context for `world`.
    pub fn new(world: &World, mix: Arc<ReadMix>, reactor: Arc<ritm_rt::Reactor>) -> Self {
        ReaderCtx {
            ca: world.ca_id,
            keys: world.keys.clone(),
            universe: world.universe,
            mix,
            sim_now: Arc::clone(&world.sim_now),
            reactor,
        }
    }
}

/// One reader thread's results.
#[derive(Default)]
pub struct ReaderOut {
    /// Requests attempted and failed.
    pub report: Report,
    /// Flight times (ms).
    pub flights: Vec<f64>,
    /// Requests answered.
    pub requests: u64,
    /// Request frame bytes sent.
    pub req_bytes: u64,
    /// Response frame bytes received.
    pub resp_bytes: u64,
    /// Most tasks seen parked in the reactor (sampled while traced).
    pub parked_max: usize,
}

impl ReaderOut {
    /// Merges another reader's results.
    pub fn absorb(&mut self, other: ReaderOut) {
        self.report.absorb(other.report);
        self.flights.extend(other.flights);
        self.requests += other.requests;
        self.req_bytes += other.req_bytes;
        self.resp_bytes += other.resp_bytes;
        self.parked_max = self.parked_max.max(other.parked_max);
    }
}

/// A reader connection with its replay protection and sampling state.
pub struct Reader {
    transport: EventTransport,
    tracker: RootTracker,
    rng: StdRng,
    /// Newest `(size, timestamp)` root seen in any earlier flight.
    floor: (u64, u64),
    served: u64,
    /// Check the next reply against the wrong serial (the planted fault
    /// the benchmark's own tests use).
    pub plant: bool,
}

impl Reader {
    /// Dials the RA at `addr`; `seed` fixes the request sequence.
    pub fn connect(addr: std::net::SocketAddr, seed: u64) -> Result<Self, String> {
        Ok(Reader {
            transport: EventTransport::connect(addr).map_err(|e| format!("reader dial: {e}"))?,
            tracker: RootTracker::new(),
            rng: StdRng::seed_from_u64(seed),
            floor: (0, 0),
            served: 0,
            plant: false,
        })
    }

    /// The reader's connection (the idle enforcement phase probes over it).
    pub fn transport(&mut self) -> (&mut EventTransport, &mut RootTracker) {
        (&mut self.transport, &mut self.tracker)
    }

    /// Runs 16-deep flights until `until`, checking every reply.
    pub fn run(&mut self, ctx: &ReaderCtx, until: Instant) -> ReaderOut {
        let mut out = ReaderOut::default();
        let mut flights = 0u64;
        while Instant::now() < until {
            self.flight(ctx, &mut out);
            flights += 1;
            if trace::enabled() && flights.is_multiple_of(32) {
                out.parked_max = out.parked_max.max(ctx.reactor.waiters());
            }
        }
        out
    }

    fn flight(&mut self, ctx: &ReaderCtx, out: &mut ReaderOut) {
        let chains: Vec<Vec<SerialNumber>> = (0..FLIGHT)
            .map(|_| {
                let len = if self.rng.gen_range(0..MULTI_EVERY) == 0 {
                    CHAIN_LEN
                } else {
                    1
                };
                (0..len).map(|_| ctx.mix.serial(&mut self.rng)).collect()
            })
            .collect();
        let reqs: Vec<RitmRequest> = chains
            .iter()
            .map(|chain| match chain.as_slice() {
                [serial] => RitmRequest::GetStatus {
                    ca: ctx.ca,
                    serial: *serial,
                },
                _ => RitmRequest::GetMultiStatus {
                    chain: chain.iter().map(|s| (ctx.ca, *s)).collect(),
                    compress: true,
                },
            })
            .collect();
        let span = trace::start();
        let started = Instant::now();
        let results = self.transport.round_trip_many(&reqs);
        out.flights.push(started.elapsed().as_secs_f64() * 1e3);
        trace::finish("client.flight", 0, span);
        out.report.attempt(FLIGHT as u64);
        let now = ctx.sim_now.load(Ordering::SeqCst);
        let floor = self.floor;
        for (mut chain, result) in chains.into_iter().zip(results) {
            let rt = match result {
                Ok(rt) => rt,
                Err(e) => {
                    out.report
                        .fail(false, || format!("status request failed: {e}"));
                    continue;
                }
            };
            out.requests += 1;
            out.req_bytes += rt.meta.request_bytes;
            out.resp_bytes += rt.meta.response_bytes;
            let payload = match rt.response {
                RitmResponse::Status(p) => p,
                other => {
                    out.report.fail(true, || {
                        format!("status request answered {}", other.kind_name())
                    });
                    continue;
                }
            };
            if std::mem::take(&mut self.plant) {
                let v = crate::oracle::value_of(&chain[0]);
                chain[0] = SerialNumber::from_u24((v + 1) % ctx.universe.size());
            }
            if !payload_matches(&payload, &chain, |s| ctx.universe.is_revoked_serial(s)) {
                out.report.fail(true, || {
                    format!("reply for {:?} contradicts the ground truth", chain)
                });
                continue;
            }
            match roots_monotone(&payload, floor) {
                Ok(newest) => self.floor = self.floor.max(newest),
                Err(msg) => {
                    out.report.fail(true, || msg);
                    continue;
                }
            }
            self.served += 1;
            if self.served.is_multiple_of(VALIDATE_EVERY) {
                if let Err(msg) = self.validate(ctx, &payload, &chain, now) {
                    out.report.fail(true, || msg);
                }
            }
        }
    }

    /// Full client-side validation against the pinned key and this
    /// reader's root tracker; the verdict must match the ground truth.
    fn validate(
        &mut self,
        ctx: &ReaderCtx,
        payload: &StatusPayload,
        chain: &[SerialNumber],
        now: u64,
    ) -> Result<(), String> {
        let pairs: Vec<(CaId, SerialNumber)> = chain.iter().map(|s| (ctx.ca, *s)).collect();
        let span = trace::start();
        let verdict =
            validate_payload_tracked(payload, &pairs, &ctx.keys, DELTA, now, &mut self.tracker);
        trace::finish("client.validate", 0, span);
        let expected = chain
            .iter()
            .find(|s| ctx.universe.is_revoked_serial(s))
            .copied();
        match (verdict, expected) {
            (Ok(Verdict::AllValid), None) => Ok(()),
            (Ok(Verdict::Revoked { serial, .. }), Some(s)) if serial == s => Ok(()),
            (v, e) => Err(format!(
                "validated verdict {v:?} for {chain:?}, expected revoked={e:?}"
            )),
        }
    }
}

/// Every root in `payload` must be at least as new as `floor` (the newest
/// root of any earlier flight): a served root never regresses. Returns the
/// newest root in the payload.
fn roots_monotone(payload: &StatusPayload, floor: (u64, u64)) -> Result<(u64, u64), String> {
    let roots = payload
        .statuses
        .iter()
        .map(|s| &s.signed_root)
        .chain(payload.multi.iter().map(|m| &m.signed_root));
    let mut newest = (0, 0);
    for r in roots {
        let key = (r.size, r.timestamp);
        if key < floor {
            return Err(format!("served root {key:?} regressed behind {floor:?}"));
        }
        newest = newest.max(key);
    }
    Ok(newest)
}

/// Runs `readers` until `until`, one thread each, and merges their
/// results.
pub fn run_readers(readers: &mut [Reader], ctx: &ReaderCtx, until: Instant) -> ReaderOut {
    std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .iter_mut()
            .map(|r| s.spawn(move || r.run(ctx, until)))
            .collect();
        let mut all = ReaderOut::default();
        for h in handles {
            all.absorb(h.join().expect("reader thread panicked"));
        }
        all
    })
}

/// Enforcement samples from a run of revocation cycles.
#[derive(Default)]
pub struct Enforcement {
    /// Windows from `revoke` called to the probe's verdict (ms).
    pub windows: Vec<f64>,
    /// Cycles attempted and failed.
    pub report: Report,
}

/// When revocation cycles run.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// One cycle per `cadence` of real time until the deadline.
    Every(Duration, Instant),
    /// One cycle, now (the warm-up).
    Once,
}

/// Revocation cycles paced by `pace`: each revokes the next batch, syncs
/// the RA, and runs `probe` on one revoked certificate of the batch
/// (chosen by `rng`), which must confirm the revocation. The window runs
/// from `revoke` called to the probe's verdict.
pub fn enforce_cycles(
    world: &mut World,
    pace: Pace,
    rng: &mut StdRng,
    mut probe: impl FnMut(&World, usize, &crate::world::Revocation, u64) -> Result<(), (bool, String)>,
) -> Enforcement {
    let mut out = Enforcement::default();
    let start = Instant::now();
    for k in 0u32.. {
        match pace {
            Pace::Every(cadence, until) => {
                let due = start + cadence * k;
                if due >= until {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
            Pace::Once if k > 0 => break,
            Pace::Once => {}
        }
        out.report.attempt(1);
        let cycle = trace::next_id();
        let rev = match world.revoke_and_sync(cycle) {
            Ok(rev) => rev,
            Err((wrong, msg)) => {
                out.report.fail(wrong, || msg);
                continue;
            }
        };
        let pick = rng.gen_range(0..rev.serials.len());
        match probe(world, pick, &rev, cycle) {
            Ok(()) => out.windows.push(rev.started.elapsed().as_secs_f64() * 1e3),
            Err((wrong, msg)) => out.report.fail(wrong, || msg),
        }
    }
    out
}

/// The status-pull probe: `fetch_and_validate` over `transport` must
/// read `Revoked` for the picked serial.
pub fn status_probe<'a>(
    transport: &'a mut EventTransport,
    tracker: &'a mut RootTracker,
) -> impl FnMut(&World, usize, &crate::world::Revocation, u64) -> Result<(), (bool, String)> + 'a {
    move |world, pick, rev, cycle| {
        probe_revoked(
            &mut *transport,
            world,
            rev.serials[pick],
            rev.now,
            &mut *tracker,
            cycle,
        )
    }
}
