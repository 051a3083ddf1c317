//! The interception lane over real sockets: TLS sites behind long-lived
//! server and relay listeners on the shared runtime, with one `FlowTable`
//! stapling statuses from the RA's read side (the paper's Table III path).

use crate::report::Report;
use crate::trace;
use crate::world::{World, DELTA, VICTIM_HOST};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::Rng;
use ritm_agent::intercept::{spawn_inline_relay, FlowTable, InterceptConfig};
use ritm_agent::StatusPayload;
use ritm_client::{validate_payload_tracked, RootTracker, Verdict};
use ritm_crypto::ed25519::SigningKey;
use ritm_dictionary::{CaId, SerialNumber};
use ritm_net::middlebox::Middlebox;
use ritm_net::tcp::{Direction, FourTuple, SocketAddr as SimAddr, TcpFlags, TcpSegment};
use ritm_net::time::SimTime;
use ritm_rt::{Handle, IoPoll};
use ritm_tls::certificate::{Certificate, CertificateChain, TrustAnchors};
use ritm_tls::connection::{ClientConfig, ServerContext};
use ritm_tls::engine::{Action, ClientEngine, ServerEngine};
use ritm_tls::event::{drive_handshake_task, HandshakeOutcome, HandshakeTaskError};
use ritm_tls::session::SessionState;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Sites behind the middlebox; one in [`REVOKED_EVERY`] presents a
/// revoked leaf.
const SITES: u32 = 16;
const REVOKED_EVERY: u32 = 4;
/// With resumption on, one benign visit in this many resumes the
/// previous session with that site.
const RESUME_EVERY: u32 = 4;
/// How long a client waits for its handshake before counting it failed.
const VISIT_TIMEOUT: Duration = Duration::from_secs(10);

/// One site: its certificate, its listeners, and what it should do.
pub struct Site {
    name: String,
    revoked: bool,
    chain: Vec<(CaId, SerialNumber)>,
    /// The context new server connections use (swapped per probe on the
    /// victim site).
    ctx: Arc<Mutex<Arc<ServerContext>>>,
    relay: SocketAddr,
}

type ClientOutcome = Result<(ClientEngine, HandshakeOutcome), HandshakeTaskError>;

/// The lane: sites, the shared flow table, and the accept loops.
pub struct Lane {
    /// The shared interception flow table.
    pub table: Arc<Mutex<FlowTable>>,
    sites: Vec<Site>,
    victim: Site,
    anchors: TrustAnchors,
    closing: Arc<AtomicBool>,
    loops: Arc<AtomicU64>,
}

fn site_chain(world: &World, name: &str, serial: SerialNumber) -> CertificateChain {
    let key = SigningKey::from_seed([13u8; 32]);
    CertificateChain(vec![Certificate::issue(
        &world.ca_key,
        world.ca_id,
        serial,
        name,
        crate::world::T0 - 100,
        crate::world::T0 + 1_000_000_000,
        key.verifying_key(),
        false,
    )])
}

impl Lane {
    /// Binds every site's server and relay listener once and starts their
    /// accept loops on `handle`. `rng` picks the sites' leaf serials.
    pub fn build(world: &World, handle: &Handle, rng: &mut StdRng) -> Result<Lane, String> {
        let table = Arc::new(Mutex::new(FlowTable::new(
            Arc::clone(&world.status),
            InterceptConfig {
                delta: DELTA,
                ..InterceptConfig::default()
            },
        )));
        let closing = Arc::new(AtomicBool::new(false));
        let loops = Arc::new(AtomicU64::new(0));
        let next_flow = Arc::new(AtomicU32::new(0));
        let half = world.universe.revoked_count();
        let mount = |name: String, serial: SerialNumber, revoked: bool, index: u32| {
            let chain = site_chain(world, &name, serial);
            let ids = chain.0.iter().map(|c| (c.issuer, c.serial)).collect();
            let ctx = Arc::new(Mutex::new(ServerContext::new(chain, [9u8; 20])));
            let server = listener()?;
            let relay = listener()?;
            let server_addr = server.local_addr().map_err(|e| e.to_string())?;
            let relay_addr = relay.local_addr().map_err(|e| e.to_string())?;
            spawn_server(
                handle,
                server,
                index,
                Arc::clone(&ctx),
                &closing,
                &loops,
                &world.sim_now,
            );
            spawn_relay(
                handle,
                relay,
                server_addr,
                index,
                &table,
                &closing,
                &loops,
                &next_flow,
                &world.sim_now,
            );
            Ok::<Site, String>(Site {
                name,
                revoked,
                chain: ids,
                ctx,
                relay: relay_addr,
            })
        };
        let mut sites = Vec::new();
        for i in 0..SITES {
            let revoked = i % REVOKED_EVERY == REVOKED_EVERY - 1;
            // Even universe values are revoked, odd ones are not.
            let v = 2 * rng.gen_range(0..half) + u32::from(!revoked);
            let name = format!("site{i}.bench.example");
            sites.push(mount(name, SerialNumber::from_u24(v), revoked, i)?);
        }
        let first = world
            .next_batch()
            .ok_or("no pre-issued certificate for the victim site")?[0]
            .serial;
        let victim = mount(VICTIM_HOST.to_string(), first, false, SITES)?;
        let mut anchors = TrustAnchors::new();
        anchors.add(world.ca_id, world.ca_key.verifying_key());
        Ok(Lane {
            table,
            sites,
            victim,
            anchors,
            closing,
            loops,
        })
    }

    fn config(&self, site: &Site) -> ClientConfig {
        ClientConfig {
            server_name: site.name.clone(),
            anchors: self.anchors.clone(),
            enable_ritm: true,
        }
    }

    /// Stops the accept loops and waits until they have exited.
    pub fn shutdown(self) {
        self.closing.store(true, Ordering::SeqCst);
        while self.loops.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        // An abandoned lane still winds down: its accept loops see the
        // flag within one readiness tick and exit.
        self.closing.store(true, Ordering::SeqCst);
    }
}

fn listener() -> Result<TcpListener, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    l.set_nonblocking(true).map_err(|e| e.to_string())?;
    Ok(l)
}

/// Accepts until `closing` is set; `None` means stop.
async fn accept_until(
    reactor: &Arc<ritm_rt::Reactor>,
    listener: &TcpListener,
    closing: &AtomicBool,
) -> Option<TcpStream> {
    ritm_rt::io(reactor, || {
        if closing.load(Ordering::SeqCst) {
            return IoPoll::Ready(None);
        }
        match listener.accept() {
            Ok((stream, _)) => IoPoll::Ready(Some(stream)),
            // Transient accept errors are retried on the next tick.
            Err(_) => IoPoll::WouldBlock,
        }
    })
    .await
}

fn spawn_server(
    handle: &Handle,
    listener: TcpListener,
    site: u32,
    ctx: Arc<Mutex<Arc<ServerContext>>>,
    closing: &Arc<AtomicBool>,
    loops: &Arc<AtomicU64>,
    sim_now: &Arc<AtomicU64>,
) {
    let (closing, loops, sim_now) = (Arc::clone(closing), Arc::clone(loops), Arc::clone(sim_now));
    let spawner = handle.clone();
    let reactor = handle.reactor();
    loops.fetch_add(1, Ordering::SeqCst);
    handle.spawn(async move {
        let mut n = 0u64;
        while let Some(stream) = accept_until(&reactor, &listener, &closing).await {
            n += 1;
            // Server randoms are unique per site and connection.
            let engine = ServerEngine::new(Arc::clone(&ctx.lock()), random(n, site, 1));
            let reactor = Arc::clone(&reactor);
            let now = sim_now.load(Ordering::SeqCst);
            spawner.spawn(async move {
                // Reset flows end in an error here by design; the client
                // side judges every outcome.
                let _ = drive_handshake_task(reactor, stream, engine, now).await;
            });
        }
        loops.fetch_sub(1, Ordering::SeqCst);
    });
}

#[allow(clippy::too_many_arguments)]
fn spawn_relay(
    handle: &Handle,
    listener: TcpListener,
    server: SocketAddr,
    site: u32,
    table: &Arc<Mutex<FlowTable>>,
    closing: &Arc<AtomicBool>,
    loops: &Arc<AtomicU64>,
    next_flow: &Arc<AtomicU32>,
    sim_now: &Arc<AtomicU64>,
) {
    let (table, closing, loops) = (Arc::clone(table), Arc::clone(closing), Arc::clone(loops));
    let (next_flow, sim_now) = (Arc::clone(next_flow), Arc::clone(sim_now));
    let spawner = handle.clone();
    let reactor = handle.reactor();
    loops.fetch_add(1, Ordering::SeqCst);
    handle.spawn(async move {
        while let Some(client) = accept_until(&reactor, &listener, &closing).await {
            // Loopback dial to a listening site: completes at once.
            let Ok(upstream) = TcpStream::connect(server) else {
                continue;
            };
            let flow = next_flow.fetch_add(1, Ordering::Relaxed);
            let now = SimTime::from_secs(sim_now.load(Ordering::SeqCst));
            // A failed spawn drops both sockets: the client sees a closed
            // connection and counts a failure.
            let _ = spawn_inline_relay(
                &spawner,
                Arc::clone(&table),
                tuple(flow, site, 0),
                client,
                upstream,
                now,
            );
        }
        loops.fetch_sub(1, Ordering::SeqCst);
    });
}

/// A distinct simulated four-tuple per flow (`lane` separates the socket
/// lane from the in-process replay).
fn tuple(flow: u32, site: u32, lane: u32) -> FourTuple {
    FourTuple {
        client: SimAddr::new(
            0x0a00_0000 | (lane << 20) | (flow >> 16),
            (flow & 0xffff) as u16,
        ),
        server: SimAddr::new(0xc0a8_0000 | site, 443),
    }
}

/// A connection random unique per (`n`, `who`, `side`).
fn random(n: u64, who: u32, side: u8) -> [u8; 32] {
    let mut r = [side; 32];
    r[..8].copy_from_slice(&n.to_be_bytes());
    r[8..12].copy_from_slice(&who.to_be_bytes());
    r
}

/// Spawns one client handshake to `relay` on the runtime; the receiver
/// yields its outcome.
fn launch(
    handle: &Handle,
    relay: SocketAddr,
    config: ClientConfig,
    session: Option<SessionState>,
    random: [u8; 32],
    now: u64,
) -> mpsc::Receiver<ClientOutcome> {
    let (tx, rx) = mpsc::channel();
    let reactor = handle.reactor();
    handle.spawn(async move {
        let result = async {
            let stream = TcpStream::connect(relay)?;
            stream.set_nodelay(true)?;
            let engine = ClientEngine::new(config, random, session);
            let (mut engine, stream, mut outcome) =
                drive_handshake_task(Arc::clone(&reactor), stream, engine, now).await?;
            // A stapled status can trail the completing flight by one
            // segment; read until it arrives or the site closes.
            let mut buf = [0u8; 4096];
            while outcome.statuses.is_empty() {
                let n = ritm_rt::net::read_some(&reactor, &stream, &mut buf).await?;
                if n == 0 {
                    break;
                }
                for action in engine.feed(now, &buf[..n]) {
                    if let Action::RitmStatus(payload) = action {
                        outcome.statuses.push(payload);
                    }
                }
            }
            Ok((engine, outcome))
        }
        .await;
        let _ = tx.send(result);
    });
    rx
}

/// One generator thread's results.
#[derive(Default)]
pub struct VisitsOut {
    /// Visits attempted and failed.
    pub report: Report,
    /// Benign handshake times, start to validated verdict (ms).
    pub latencies: Vec<f64>,
    /// Handshakes completed as they should (established or reset).
    pub completed: u64,
    /// Benign handshakes and the stapled bytes they received.
    pub benign: u64,
    /// Stapled status bytes received by benign clients.
    pub stapled_bytes: u64,
    /// Revoked-site visits (each must be reset).
    pub revoked: u64,
    /// Most tasks seen parked in the reactor (sampled while traced).
    pub parked_max: usize,
}

impl VisitsOut {
    /// Merges another thread's results.
    pub fn absorb(&mut self, o: VisitsOut) {
        self.report.absorb(o.report);
        self.latencies.extend(o.latencies);
        self.completed += o.completed;
        self.benign += o.benign;
        self.stapled_bytes += o.stapled_bytes;
        self.revoked += o.revoked;
        self.parked_max = self.parked_max.max(o.parked_max);
    }
}

/// A generator thread: visits sites one at a time until `until`.
pub struct Visitor {
    id: u32,
    resume: bool,
    rng: StdRng,
    sessions: Vec<Option<SessionState>>,
    tracker: RootTracker,
    n: u64,
    /// Validate the next benign status against the wrong leaf serial (the
    /// planted fault the benchmark's own tests use).
    pub plant: bool,
}

impl Visitor {
    /// Visitor `id`, whose site choices follow `rng`; `resume` turns on
    /// session resumption for one benign visit in [`RESUME_EVERY`].
    pub fn new(id: u32, resume: bool, rng: StdRng) -> Self {
        Visitor {
            id,
            resume,
            rng,
            sessions: vec![None; SITES as usize],
            tracker: RootTracker::new(),
            n: 0,
            plant: false,
        }
    }

    /// Visits sites until `until`.
    pub fn run(
        &mut self,
        lane: &Lane,
        world: &World,
        handle: &Handle,
        until: Instant,
    ) -> VisitsOut {
        let mut out = VisitsOut::default();
        let reactor = handle.reactor();
        while Instant::now() < until {
            let i = self.rng.gen_range(0..SITES) as usize;
            self.visit(lane, world, handle, i, &mut out);
            if trace::enabled() && self.n.is_multiple_of(8) {
                out.parked_max = out.parked_max.max(reactor.waiters());
            }
        }
        out
    }

    fn visit(
        &mut self,
        lane: &Lane,
        world: &World,
        handle: &Handle,
        i: usize,
        out: &mut VisitsOut,
    ) {
        let site = &lane.sites[i];
        let session = match &self.sessions[i] {
            Some(s) if self.resume && self.rng.gen_range(0..RESUME_EVERY) == 0 => Some(s.clone()),
            _ => None,
        };
        let resuming = session.is_some();
        let what = if resuming { "resumed" } else { "full" };
        self.n += 1;
        let now = world.now();
        out.report.attempt(1);
        let started = Instant::now();
        let span = trace::start();
        let rx = launch(
            handle,
            site.relay,
            lane.config(site),
            session,
            random(self.n, self.id, 2),
            now,
        );
        let result = rx.recv_timeout(VISIT_TIMEOUT);
        trace::finish("client.handshake", 0, span);
        let result = match result {
            Ok(r) => r,
            Err(_) => {
                out.report.fail(false, || {
                    format!("{what} handshake to {} timed out", site.name)
                });
                return;
            }
        };
        if site.revoked {
            out.revoked += 1;
            match result {
                Err(_) => out.completed += 1,
                Ok(_) => out
                    .report
                    .fail(true, || format!("revoked site {} was not reset", site.name)),
            }
            return;
        }
        let (engine, outcome) = match result {
            Ok(r) => r,
            Err(e) => {
                out.report.fail(false, || {
                    format!("benign {what} handshake to {} failed: {e}", site.name)
                });
                return;
            }
        };
        if outcome.resumed != resuming {
            out.report.fail(true, || {
                format!(
                    "{}: resumed={} but resumption was {}",
                    site.name, outcome.resumed, resuming
                )
            });
            return;
        }
        let Some(raw) = outcome.statuses.first() else {
            out.report.fail(true, || {
                format!("benign {what} flow to {} was not stapled", site.name)
            });
            return;
        };
        let mut chain = site.chain.clone();
        if std::mem::take(&mut self.plant) {
            let v = crate::oracle::value_of(&chain[0].1);
            chain[0].1 = SerialNumber::from_u24(v + 2);
        }
        let span = trace::start();
        let verdict = StatusPayload::from_bytes(raw)
            .map_err(|e| format!("{e:?}"))
            .and_then(|p| {
                validate_payload_tracked(&p, &chain, &world.keys, DELTA, now, &mut self.tracker)
                    .map_err(|e| e.to_string())
            });
        trace::finish("client.validate", 0, span);
        if verdict != Ok(Verdict::AllValid) {
            out.report.fail(true, || {
                format!(
                    "benign {what} flow to {} validated to {verdict:?}",
                    site.name
                )
            });
            return;
        }
        out.latencies.push(started.elapsed().as_secs_f64() * 1e3);
        out.completed += 1;
        out.benign += 1;
        out.stapled_bytes += raw.len() as u64;
        if engine.is_established() {
            self.sessions[i] = engine.session_state(now);
        }
    }

    /// The enforcement probe: the victim site now presents `cert`, whose
    /// revocation the RA has just synced; a handshake to it must be reset
    /// by the middlebox and never established.
    pub fn probe_reset(
        &mut self,
        lane: &Lane,
        handle: &Handle,
        cert: &Certificate,
        now: u64,
    ) -> Result<(), (bool, String)> {
        let victim = &lane.victim;
        *victim.ctx.lock() = ServerContext::new(CertificateChain(vec![cert.clone()]), [9u8; 20]);
        let resets = lane.table.lock().stats().flows_reset;
        self.n += 1;
        let rx = launch(
            handle,
            victim.relay,
            lane.config(victim),
            None,
            random(self.n, self.id, 2),
            now,
        );
        match rx.recv_timeout(VISIT_TIMEOUT) {
            Err(_) => Err((false, "victim handshake timed out".to_string())),
            Ok(Ok(_)) => Err((
                true,
                format!("revoked serial {} was not reset", cert.serial),
            )),
            Ok(Err(_)) if lane.table.lock().stats().flows_reset > resets => Ok(()),
            Ok(Err(e)) => Err((true, format!("victim flow failed without a reset: {e}"))),
        }
    }
}

/// Per-visit costs from driving a handshake's bytes segment by segment
/// through a flow table and both engines in process.
#[derive(Default, Clone, Copy)]
pub struct Replayed {
    /// Time inside `FlowTable::process` for the whole flow (µs).
    pub process_us: f64,
    /// Time inside `ClientEngine` calls (µs).
    pub client_us: f64,
    /// Time inside `ServerEngine::feed` (µs).
    pub server_us: f64,
}

/// Replays `visits` handshakes in process (same site mix and resumption
/// rule as the socket lane) through `table`, timing each layer's calls.
/// Returns one sample per handshake plus wrong outcomes.
pub fn replay(
    lane: &Lane,
    table: &mut FlowTable,
    rng: &mut StdRng,
    visits: u32,
    resume: bool,
    now: u64,
) -> (Vec<Replayed>, Report) {
    let mut report = Report::default();
    let mut sessions: Vec<Option<SessionState>> = vec![None; SITES as usize];
    let mut samples = Vec::with_capacity(visits as usize);
    let at = SimTime::from_secs(now);
    for flow in 0..visits {
        let i = rng.gen_range(0..SITES) as usize;
        let site = &lane.sites[i];
        let session = match &sessions[i] {
            Some(s) if resume && rng.gen_range(0..RESUME_EVERY) == 0 => Some(s.clone()),
            _ => None,
        };
        report.attempt(1);
        let ctx = Arc::clone(&site.ctx.lock());
        let t = tuple(flow, i as u32, 1);
        let mut r = Replayed::default();
        let mut client =
            ClientEngine::new(lane.config(site), random(u64::from(flow), 0, 2), session);
        let mut server = ServerEngine::new(ctx, random(u64::from(flow), 0, 1));
        let start = Instant::now();
        let mut to_server = client.start().to_bytes();
        r.client_us += start.elapsed().as_secs_f64() * 1e6;
        let (mut seq_cs, mut seq_sc) = (0u64, 0u64);
        let (mut reset, mut stapled) = (false, false);
        let process = |table: &mut FlowTable, seg: TcpSegment, r: &mut Replayed| {
            let start = Instant::now();
            let outs = table.process(seg, at);
            r.process_us += start.elapsed().as_secs_f64() * 1e6;
            outs
        };
        for _ in 0..8 {
            let seg = segment(
                t,
                Direction::ToServer,
                seq_cs,
                std::mem::take(&mut to_server),
            );
            seq_cs += seg.payload.len() as u64;
            let outs = process(table, seg, &mut r);
            if outs.iter().any(|o| o.flags.rst) {
                reset = true;
                break;
            }
            let mut flight = Vec::new();
            for out in outs.iter().filter(|o| o.direction == Direction::ToServer) {
                let start = Instant::now();
                let actions = server.feed(now, &out.payload);
                r.server_us += start.elapsed().as_secs_f64() * 1e6;
                for a in actions {
                    if let Action::SendBytes(b) = a {
                        flight.extend_from_slice(&b);
                    }
                }
            }
            let seg = segment(t, Direction::ToClient, seq_sc, flight);
            seq_sc += seg.payload.len() as u64;
            let outs = process(table, seg, &mut r);
            if outs.iter().any(|o| o.flags.rst) {
                reset = true;
                break;
            }
            for out in outs.iter().filter(|o| o.direction == Direction::ToClient) {
                let start = Instant::now();
                let actions = client.feed(now, &out.payload);
                r.client_us += start.elapsed().as_secs_f64() * 1e6;
                for a in actions {
                    match a {
                        Action::SendBytes(b) => to_server.extend_from_slice(&b),
                        Action::RitmStatus(_) => stapled = true,
                        _ => {}
                    }
                }
            }
            if client.is_established() && to_server.is_empty() {
                break;
            }
        }
        let mut fin = segment(t, Direction::ToServer, seq_cs, Vec::new());
        fin.flags = TcpFlags {
            fin: true,
            ..TcpFlags::default()
        };
        process(table, fin, &mut r);
        let ok = if site.revoked {
            reset && !client.is_established()
        } else {
            !reset && stapled && client.is_established()
        };
        if ok {
            if !site.revoked {
                sessions[i] = client.session_state(now);
            }
            samples.push(r);
        } else {
            report.fail(true, || {
                format!(
                    "replayed visit to {}: reset={reset} stapled={stapled} established={}",
                    site.name,
                    client.is_established()
                )
            });
        }
    }
    (samples, report)
}

fn segment(tuple: FourTuple, direction: Direction, seq: u64, payload: Vec<u8>) -> TcpSegment {
    TcpSegment {
        tuple,
        direction,
        seq,
        ack: 0,
        flags: TcpFlags::default(),
        payload,
    }
}
