//! The system under test, built once per set-up: a CA holding a large
//! revocation dictionary with its issuance log attached, the CDN behind one
//! edge endpoint, and an RA mirroring the CA that serves statuses — the
//! RA status endpoint and the edge mounted on the benchmark's shared
//! runtime.

use crate::layers::{Layer, Traced, TracedTransport};
use crate::oracle::Universe;
use crate::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::{RaConfig, RevocationAgent, StatusServer, StatusService};
use ritm_ca::{CertificationAuthority, IssuanceLog};
use ritm_cdn::{Cdn, EdgeService, Region};
use ritm_client::{fetch_and_validate, FetchError, RootTracker, Verdict};
use ritm_crypto::ed25519::{SigningKey, VerifyingKey};
use ritm_dictionary::{CaDictionary, CaId, DictionaryEngine, RefreshMessage, SerialNumber};
use ritm_net::time::{SimDuration, SimTime};
use ritm_proto::event::{EventServer, EventTransport};
use ritm_proto::{EventServerConfig, Service, Transport};
use ritm_tls::certificate::Certificate;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Simulated Unix time the CA starts at.
pub const T0: u64 = 1_400_000_000;
/// The dissemination period Δ (simulated seconds).
pub const DELTA: u64 = 10;
/// Revocations per CA batch — one Δ's worth.
pub const BATCH: usize = 100;
/// Hash-chain length `m` (freshness periods per signed root).
const CHAIN_LEN: u64 = 64;
const CA_NAME: &str = "BenchCA";
/// Subject of every certificate the CA issues during set-up; the
/// handshake workload's victim site presents them one by one.
pub const VICTIM_HOST: &str = "victim.bench.example";

/// How big a world to build.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Serials in the static universe; half of them start revoked.
    pub universe: u32,
    /// Revocation batches the CA pre-issues certificates for.
    pub batches: usize,
}

/// One completed revocation: what was revoked and when it started.
pub struct Revocation {
    /// When `revoke` was called.
    pub started: Instant,
    /// The simulated time the batch was signed at.
    pub now: u64,
    /// The serials revoked.
    pub serials: Vec<SerialNumber>,
    /// The revoked certificates, in `serials` order.
    pub certs: Vec<Certificate>,
}

/// Totals over every sync the world ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncTotals {
    /// Response bytes the RA downloaded.
    pub bytes: u64,
    /// Revocations the RA applied.
    pub revocations: u64,
    /// Re-sent round trips.
    pub retries: u64,
    /// Messages that failed verification.
    pub rejected: u64,
}

/// The assembled system.
pub struct World {
    /// The static serial universe.
    pub universe: Universe,
    /// The CA's identifier.
    pub ca_id: CaId,
    /// Pinned CA keys, as clients hold them.
    pub keys: HashMap<CaId, VerifyingKey>,
    /// The CA's signing key (the handshake workload issues its site
    /// certificates with it directly).
    pub ca_key: SigningKey,
    /// The RA's read side, shared with the interception lane.
    pub status: Arc<StatusServer>,
    /// The RA status endpoint.
    pub ra_server: EventServer,
    /// The CDN edge endpoint the RA syncs from.
    pub edge_server: EventServer,
    /// Current simulated time (seconds), readable by every thread.
    pub sim_now: Arc<AtomicU64>,
    /// Totals over every sync so far.
    pub sync_totals: SyncTotals,
    ca: CertificationAuthority,
    ra: RevocationAgent,
    edge: Arc<EdgeService>,
    sync: TracedTransport<EventTransport>,
    batches: VecDeque<Vec<Certificate>>,
    rng: StdRng,
    _run_dir: RunDir,
}

/// The world's scratch directory under `.bench_run/`, removed on drop
/// (with `.bench_run/` itself once no other world uses it).
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(".bench_run").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("run dir {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

impl World {
    /// Builds the world on `handle`'s runtime. The dictionary is the same
    /// for every seed; the seed only feeds the CA's and edge's randomness.
    pub fn build(scale: Scale, seed: u64, handle: &ritm_rt::Handle) -> Result<World, String> {
        let universe = Universe::new(scale.universe);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_ca00);
        let ca_key = SigningKey::from_seed([11u8; 32]);
        let ca_id = CaId::from_name(CA_NAME);
        let mut dict = CaDictionary::new(ca_id, ca_key.clone(), DELTA, CHAIN_LEN, &mut rng, T0);
        let genesis = *dict.signed_root();
        let initial = dict
            .insert(&universe.revoked(), &mut rng, T0 + 1)
            .ok_or("initial revocation batch was empty")?;

        // The RA's mirror verifies and rebuilds the whole dictionary while
        // this thread registers the CA and issues its certificates.
        let mirror_build = || -> Result<RevocationAgent, String> {
            let mut ra = RevocationAgent::new(RaConfig {
                delta: DELTA,
                ..RaConfig::default()
            });
            ra.follow_ca(ca_id, ca_key.verifying_key(), genesis)
                .map_err(|e| format!("RA bootstrap: {e:?}"))?;
            ra.mirror_mut(&ca_id)
                .ok_or("RA lost its mirror")?
                .apply_issuance(&initial, T0 + 1)
                .map_err(|e| format!("RA initial sync: {e:?}"))?;
            Ok(ra)
        };
        let ca_build = || -> Result<_, String> {
            // The edge caches for less than one Δ: every batch's pull
            // reaches the origin, as a batch-per-Δ feed does.
            let mut cdn = Cdn::new(SimDuration::from_secs(DELTA / 2));
            let mut ca =
                CertificationAuthority::with_engine(CA_NAME, ca_key.clone(), DELTA, dict, &mut cdn);
            cdn.origin
                .publish_issuance(ca_id, &initial)
                .map_err(|e| format!("origin refused the initial batch: {e}"))?;
            let fresh = ca
                .dictionary()
                .freshness_for(T0 + 1)
                .ok_or("no freshness statement")?;
            cdn.origin
                .publish_refresh(ca_id, &RefreshMessage::Freshness(fresh))
                .map_err(|e| format!("origin refused freshness: {e}"))?;
            ca.set_next_serial(universe.first_free());
            let subject = SigningKey::from_seed([12u8; 32]).verifying_key();
            let batches: VecDeque<Vec<Certificate>> = (0..scale.batches)
                .map(|_| {
                    (0..BATCH)
                        .map(|_| {
                            ca.issue_certificate(VICTIM_HOST, subject, T0 - 100, T0 + 1_000_000_000)
                        })
                        .collect()
                })
                .collect();
            Ok((ca, cdn, batches))
        };
        let (ra, built) = std::thread::scope(|s| {
            let mirror = s.spawn(mirror_build);
            let built = ca_build();
            (mirror.join().expect("mirror build thread panicked"), built)
        });
        let (ra, (mut ca, cdn, batches)) = (ra?, built?);

        let run_dir = RunDir::create()?;
        let (log, _) = IssuanceLog::open(run_dir.0.join("issuance.log"))
            .map_err(|e| format!("issuance log: {e}"))?;
        ca.attach_wal(log);

        let status = ra.status_server();
        let config = EventServerConfig::default();
        let ra_service = Traced::new(
            StatusService::new(Arc::clone(&status)),
            Layer::Serve(Arc::clone(&status)),
        );
        let ra_server =
            EventServer::spawn_on(Arc::new(ra_service) as Arc<dyn Service>, handle, config)
                .map_err(|e| format!("RA bind: {e}"))?;
        let edge = Arc::new(EdgeService::new(cdn, Region::Europe, seed));
        edge.set_now(SimTime::from_secs(T0 + 1));
        let edge_service = Traced::new(Arc::clone(&edge), Layer::Edge);
        let edge_server =
            EventServer::spawn_on(Arc::new(edge_service) as Arc<dyn Service>, handle, config)
                .map_err(|e| format!("edge bind: {e}"))?;
        let sync = TracedTransport::new(
            EventTransport::connect(edge_server.addr()).map_err(|e| format!("edge dial: {e}"))?,
        );
        let mut keys = HashMap::new();
        keys.insert(ca_id, ca_key.verifying_key());
        Ok(World {
            universe,
            ca_id,
            keys,
            ca_key,
            status,
            ra_server,
            edge_server,
            sim_now: Arc::new(AtomicU64::new(T0 + 1)),
            sync_totals: SyncTotals::default(),
            ca,
            ra,
            edge,
            sync,
            batches,
            rng,
            _run_dir: run_dir,
        })
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.sim_now.load(Ordering::SeqCst)
    }

    /// The certificates the next [`World::revoke_and_sync`] will revoke.
    pub fn next_batch(&self) -> Option<&[Certificate]> {
        self.batches.front().map(Vec::as_slice)
    }

    /// The revocation half of the attack window: advances simulated time
    /// by Δ, has the CA revoke the next pre-issued batch (dictionary
    /// insert, signature, issuance-log sync, origin publish), then runs one
    /// RA sync against the edge over its socket. `cycle` links the spans.
    /// An error says whether it is a wrong outcome (`true`) or a failure
    /// to get one, such as an exhausted retry budget.
    pub fn revoke_and_sync(&mut self, cycle: u64) -> Result<Revocation, (bool, String)> {
        let certs = self
            .batches
            .pop_front()
            .ok_or((false, "pre-issued revocation batches exhausted".to_string()))?;
        let serials: Vec<SerialNumber> = certs.iter().map(|c| c.serial).collect();
        let now = self.sim_now.fetch_add(DELTA, Ordering::SeqCst) + DELTA;
        self.edge.set_now(SimTime::from_secs(now));
        let started = Instant::now();
        let span = trace::start();
        let (ca, rng) = (&mut self.ca, &mut self.rng);
        let issued = self.edge.with_cdn(|cdn| ca.revoke(&serials, cdn, rng, now));
        trace::finish("ca.revoke", cycle, span);
        match issued {
            Ok(Some(iss)) if iss.serials.len() == serials.len() => {}
            other => return Err((true, format!("CA revoke returned {other:?}"))),
        }

        let span = trace::start();
        let sync_id = trace::next_id();
        self.sync.set_parent(sync_id);
        let report = self.ra.sync_via(&mut self.sync, SimTime::from_secs(now));
        if let Some(s) = span {
            trace::record("sync", sync_id, cycle, s, Instant::now());
        }
        let t = &mut self.sync_totals;
        t.bytes += report.bytes_downloaded;
        t.revocations += report.revocations_applied;
        t.retries += report.retries;
        t.rejected += report.rejected;
        if report.revocations_applied != serials.len() as u64 || report.rejected != 0 {
            let wrong = report.gave_up == 0;
            return Err((
                wrong,
                format!("RA sync did not apply the batch: {report:?}"),
            ));
        }
        Ok(Revocation {
            started,
            now,
            serials,
            certs,
        })
    }

    /// The CDN's aggregate edge cache-hit ratio.
    pub fn cdn_hit_ratio(&self) -> f64 {
        self.edge.with_cdn(|cdn| cdn.hit_ratio())
    }

    /// Open-connection drops (backlog overflow + keepalive) across both
    /// endpoints.
    pub fn drops(&self) -> u64 {
        [&self.ra_server, &self.edge_server]
            .iter()
            .map(|s| s.overflow_drops() + s.keepalive_drops())
            .sum()
    }

    /// Stops both endpoints, waiting for their tasks, and removes the
    /// issuance log. (Dropping a world also closes the endpoints, without
    /// waiting.)
    pub fn shutdown(self) {
        let World {
            ra_server,
            edge_server,
            sync,
            ..
        } = self;
        drop(sync);
        ra_server.shutdown();
        edge_server.shutdown();
    }
}

/// The status-pull enforcement probe: fetches `serial`'s status from the
/// RA and requires a validated `Revoked` verdict for exactly that serial.
/// An error says whether the answer was wrong (`true`) or missing.
pub fn probe_revoked<T: Transport>(
    transport: &mut T,
    world: &World,
    serial: SerialNumber,
    now: u64,
    tracker: &mut RootTracker,
    cycle: u64,
) -> Result<(), (bool, String)> {
    let span = trace::start();
    let fetched = fetch_and_validate(
        transport,
        &[(world.ca_id, serial)],
        &world.keys,
        DELTA,
        now,
        tracker,
    );
    trace::finish("client.probe", cycle, span);
    match fetched {
        Ok(f) => match f.verdict {
            Verdict::Revoked { serial: s, .. } if s == serial => Ok(()),
            v => Err((
                true,
                format!("probe for revoked serial {serial} read {v:?}"),
            )),
        },
        Err(e) => {
            let wrong = !matches!(e, FetchError::Transport(_));
            Err((
                wrong,
                format!("probe for revoked serial {serial} failed: {e}"),
            ))
        }
    }
}
