//! Ground truth for the status workloads: which serials exist, which are
//! revoked, and which ones the generator asks about.
//!
//! The serial universe is `0..size` (3-byte serials). Every even value is
//! revoked in the CA's initial dictionary and every odd value is not, so
//! the oracle is a parity test that cannot drift from the dictionary the
//! world builds. Requests draw a Zipf(s) popularity rank and map it through
//! a seeded bijection onto the universe, so the hot set mixes revoked and
//! valid serials and moves with the seed.

use rand::rngs::StdRng;
use rand::Rng;
use ritm_dictionary::{RevocationProof, RevocationStatus, SerialNumber};
use ritm_proto::StatusPayload;

/// The static serial universe and its revoked half.
#[derive(Debug, Clone, Copy)]
pub struct Universe {
    size: u32,
}

impl Universe {
    /// A universe of `size` serials (`size` even, at most 2^23 so that
    /// every value and the CA's later serials fit in three bytes).
    pub fn new(size: u32) -> Self {
        assert!(
            size >= 2 && size.is_multiple_of(2) && size <= 1 << 23,
            "bad universe size {size}"
        );
        Universe { size }
    }

    /// Number of serials.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Number of revoked serials (the even half).
    pub fn revoked_count(&self) -> u32 {
        self.size / 2
    }

    /// The revoked serials, ascending.
    pub fn revoked(&self) -> Vec<SerialNumber> {
        (0..self.size)
            .step_by(2)
            .map(SerialNumber::from_u24)
            .collect()
    }

    /// Whether universe value `v` is revoked.
    pub fn is_revoked(&self, v: u32) -> bool {
        v.is_multiple_of(2)
    }

    /// Whether `serial` is revoked in the initial dictionary (serials
    /// outside the universe are not).
    pub fn is_revoked_serial(&self, serial: &SerialNumber) -> bool {
        let v = value_of(serial);
        v < self.size && self.is_revoked(v)
    }

    /// The first serial value outside the universe: the CA issues its own
    /// certificates from here on, so they never collide with it.
    pub fn first_free(&self) -> u32 {
        self.size
    }
}

/// Zipf(s) popularity ranks over `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the cumulative distribution of ranks `0..n` with
    /// weight `1/(rank+1)^s`.
    pub fn new(n: u32, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / f64::from(r + 1).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) as u32
    }
}

/// A seeded bijection from popularity rank to universe value:
/// `v = (a·r + b) mod n` with `a` odd and coprime to `n`.
#[derive(Debug, Clone, Copy)]
pub struct RankMap {
    n: u64,
    a: u64,
    b: u64,
}

impl RankMap {
    /// Picks the multiplier and offset from `rng`.
    pub fn new(n: u32, rng: &mut StdRng) -> Self {
        let n = u64::from(n);
        let a = loop {
            let a = rng.gen_range(1..n) | 1;
            if gcd(a, n) == 1 {
                break a;
            }
        };
        RankMap {
            n,
            a,
            b: rng.gen_range(0..n),
        }
    }

    /// The universe value for rank `r`.
    pub fn value(&self, r: u32) -> u32 {
        ((self.a * u64::from(r) + self.b) % self.n) as u32
    }
}

/// The integer value of a serial's big-endian bytes (serials here are
/// three bytes long).
pub fn value_of(serial: &SerialNumber) -> u32 {
    serial
        .as_bytes()
        .iter()
        .fold(0u32, |acc, &b| acc.wrapping_shl(8) | u32::from(b))
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// What a served single status claims about `serial`: `Some(true)` for a
/// presence proof of exactly that serial, `Some(false)` for an absence
/// proof, `None` for a presence proof of some other serial (a wrong
/// answer in any case).
pub fn claims_revoked(status: &RevocationStatus, serial: &SerialNumber) -> Option<bool> {
    match &status.proof {
        RevocationProof::Present(p) => (p.leaf.serial == *serial).then_some(true),
        _ => Some(false),
    }
}

/// Checks a served payload against the truth for `chain` (leaf first),
/// without the signature and hash work of full validation: the leaf's
/// individual status and every serial of a compressed run must claim
/// exactly what `truth` says. Returns `false` on any disagreement or on a
/// payload that does not cover the chain.
pub fn payload_matches(
    payload: &StatusPayload,
    chain: &[SerialNumber],
    truth: impl Fn(&SerialNumber) -> bool,
) -> bool {
    let Some((leaf, rest)) = chain.split_first() else {
        return false;
    };
    let Some(first) = payload.statuses.first() else {
        return false;
    };
    if claims_revoked(first, leaf) != Some(truth(leaf)) {
        return false;
    }
    if rest.is_empty() {
        return payload.statuses.len() == 1 && payload.multi.is_empty();
    }
    match (&payload.statuses[1..], payload.multi.as_slice()) {
        // Compressed run: one multiproof covering the rest of the chain.
        ([], [m]) => {
            m.serials == rest
                && rest.iter().all(|s| {
                    let present = m.proof.leaves.iter().any(|(_, l)| l.serial == *s);
                    present == truth(s)
                })
        }
        // Uncompressed: one individual status per remaining certificate.
        (singles, []) if singles.len() == rest.len() => singles
            .iter()
            .zip(rest)
            .all(|(st, s)| claims_revoked(st, s) == Some(truth(s))),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn half_the_universe_is_revoked() {
        let u = Universe::new(1000);
        assert_eq!(u.revoked().len(), 500);
        assert_eq!(u.revoked_count(), 500);
        assert!(u.revoked().iter().all(|s| value_of(s).is_multiple_of(2)));
        assert_eq!(value_of(&SerialNumber::from_u24(0x01_02_03)), 0x01_02_03);
        assert!(!u.is_revoked_serial(&SerialNumber::from_u24(1000)));
        assert!(u.is_revoked(0) && !u.is_revoked(1) && u.is_revoked(998));
        assert_eq!(u.first_free(), 1000);
    }

    #[test]
    fn rank_map_is_a_seeded_bijection() {
        let n = 2000;
        let m = RankMap::new(n, &mut StdRng::seed_from_u64(3));
        let mut seen = vec![false; n as usize];
        for r in 0..n {
            let v = m.value(r) as usize;
            assert!(!seen[v], "value {v} hit twice");
            seen[v] = true;
        }
        let other = RankMap::new(n, &mut StdRng::seed_from_u64(4));
        assert!((0..n).any(|r| m.value(r) != other.value(r)));
    }

    #[test]
    fn zipf_favours_low_ranks_and_repeats_by_seed() {
        let z = Zipf::new(10_000, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        let top = a.iter().filter(|&&r| r == 0).count();
        let tenth = a.iter().filter(|&&r| r == 9).count();
        // P(rank 0) / P(rank 9) = 10 under s = 1.
        assert!(top > 5 * tenth, "top={top} tenth={tenth}");
        assert!(a.iter().all(|&r| r < 10_000));
    }

    #[test]
    fn the_oracle_accepts_true_claims_and_refuses_planted_ones() {
        use rand::SeedableRng;
        use ritm_agent::StatusServer;
        use ritm_crypto::ed25519::SigningKey;
        use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary};

        let u = Universe::new(200);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ca = CaDictionary::new(
            CaId::from_name("OracleCA"),
            SigningKey::from_seed([1u8; 32]),
            10,
            8,
            &mut rng,
            100,
        );
        let mut mirror =
            MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root()).unwrap();
        let iss = ca.insert(&u.revoked(), &mut rng, 101).unwrap();
        mirror.apply_issuance(&iss, 101).unwrap();
        let server = StatusServer::new();
        assert!(server.publish(mirror.snapshot()));
        let truth = |s: &SerialNumber| u.is_revoked_serial(s);
        for chain_values in [[10u32, 11, 13], [11, 12, 14], [15, 17, 19]] {
            let chain: Vec<SerialNumber> = chain_values
                .iter()
                .map(|&v| SerialNumber::from_u24(v))
                .collect();
            let pairs: Vec<_> = chain.iter().map(|s| (ca.ca(), *s)).collect();
            for compress in [false, true] {
                let payload = server.build_status(&pairs, compress).unwrap();
                assert!(payload_matches(&payload, &chain, truth));
                // Checked against the wrong serial (the planted fault the
                // workloads use): the claim no longer matches the truth.
                let mut wrong = chain.clone();
                wrong[0] = SerialNumber::from_u24(chain_values[0] + 1);
                assert!(!payload_matches(&payload, &wrong, truth));
                assert!(!payload_matches(&payload, &chain[..1], truth));
            }
        }
    }
}
