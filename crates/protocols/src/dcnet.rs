//! DC-Net (Chaum's dining cryptographers): the paper's non-rerouting
//! baseline.
//!
//! Every pair of participants shares a secret pad; in a round, each
//! participant announces the XOR of its pads, and the sender additionally
//! XORs in its message. The XOR of all announcements equals the message,
//! yet no coalition that excludes the sender can tell who sent it: the
//! sender hides among the honest participants.
//!
//! The paper dismisses DC-Nets for their broadcast cost (`O(n)` messages
//! of full payload size per round, `O(n²)` shared keys); this module
//! implements the round protocol so the cost/anonymity trade-off can be
//! measured against rerouting strategies.

#![allow(clippy::needless_range_loop)] // pairwise seed matrix indexing

use anonroute_crypto::hkdf;

use crate::error::{Error, Result};

/// A DC-Net session over `n` participants with pairwise shared seeds.
#[derive(Debug, Clone)]
pub struct DcNet {
    n: usize,
    /// `seeds[i][j]` = seed shared by participants `i < j`.
    seeds: Vec<Vec<[u8; 32]>>,
    round: u64,
}

/// The announcements of one DC-Net round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Per-participant announcement vectors.
    pub announcements: Vec<Vec<u8>>,
    /// Round number (pads are never reused across rounds).
    pub round: u64,
}

impl DcNet {
    /// Provisions pairwise seeds for `n` participants from a session seed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for `n < 2`.
    pub fn new(session_seed: &[u8], n: usize) -> Result<Self> {
        if n < 2 {
            return Err(Error::Config(
                "a DC-net needs at least two participants".into(),
            ));
        }
        let mut seeds = vec![vec![[0u8; 32]; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let mut s = [0u8; 32];
                let info = [
                    b"dcnet-pair" as &[u8],
                    &(i as u64).to_be_bytes(),
                    &(j as u64).to_be_bytes(),
                ]
                .concat();
                hkdf::derive(b"anonroute-dcnet", session_seed, &info, &mut s);
                seeds[i][j] = s;
                seeds[j][i] = s;
            }
        }
        Ok(DcNet { n, seeds, round: 0 })
    }

    /// Number of participants.
    pub fn n(&self) -> usize {
        self.n
    }

    fn pad(&self, i: usize, j: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let info = [b"dcnet-pad" as &[u8], &self.round.to_be_bytes()].concat();
        hkdf::derive(&info, &self.seeds[i][j], b"pad", &mut out);
        out
    }

    /// Runs one round in which `sender` (if any) transmits `message`.
    /// Advances the round counter.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the sender index is out of range.
    pub fn run_round(&mut self, sender: Option<usize>, message: &[u8]) -> Result<Round> {
        if let Some(s) = sender {
            if s >= self.n {
                return Err(Error::Config(format!("sender {s} out of range")));
            }
        }
        let len = message.len();
        let mut announcements = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let mut a = vec![0u8; len];
            for j in 0..self.n {
                if i == j {
                    continue;
                }
                let (lo, hi) = (i.min(j), i.max(j));
                let pad = self.pad(lo, hi, len);
                for (x, p) in a.iter_mut().zip(&pad) {
                    *x ^= p;
                }
            }
            if sender == Some(i) {
                for (x, m) in a.iter_mut().zip(message) {
                    *x ^= m;
                }
            }
            announcements.push(a);
        }
        let round = Round {
            announcements,
            round: self.round,
        };
        self.round += 1;
        Ok(round)
    }
}

impl Round {
    /// Recovers the round's message: the XOR of all announcements
    /// (all-zero when nobody sent).
    pub fn decode(&self) -> Vec<u8> {
        let len = self.announcements.first().map_or(0, Vec::len);
        let mut out = vec![0u8; len];
        for a in &self.announcements {
            for (x, b) in out.iter_mut().zip(a) {
                *x ^= b;
            }
        }
        out
    }
}

/// Anonymity degree of a DC-Net round against the paper's adversary
/// (`c` compromised participants that pool their pads): a compromised
/// sender is exposed; an honest sender is information-theoretically hidden
/// among all `n - c` honest participants, so
/// `H* = (n-c)/n · log2(n-c)`.
pub fn anonymity_degree(n: usize, c: usize) -> f64 {
    if c >= n {
        return 0.0;
    }
    let honest = (n - c) as f64;
    (honest / n as f64) * honest.log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_is_recovered() {
        let mut net = DcNet::new(b"round-table", 5).unwrap();
        let round = net.run_round(Some(2), b"the NSA pays").unwrap();
        assert_eq!(round.decode(), b"the NSA pays");
    }

    #[test]
    fn silent_round_decodes_to_zero() {
        let mut net = DcNet::new(b"s", 4).unwrap();
        let round = net.run_round(None, &[0u8; 8]).unwrap();
        assert_eq!(round.decode(), vec![0u8; 8]);
    }

    #[test]
    fn pads_differ_across_rounds() {
        let mut net = DcNet::new(b"s", 3).unwrap();
        let r1 = net.run_round(Some(0), b"aaaa").unwrap();
        let r2 = net.run_round(Some(0), b"aaaa").unwrap();
        assert_ne!(r1.announcements, r2.announcements);
        assert_eq!(r1.decode(), r2.decode());
    }

    #[test]
    fn announcements_alone_do_not_identify_the_sender() {
        // swap the sender: the set of announcements is differently
        // distributed, but each individual announcement looks random;
        // check at least that no announcement equals the raw message
        let mut net = DcNet::new(b"s", 6).unwrap();
        let round = net.run_round(Some(3), b"attack at dawn!!").unwrap();
        for a in &round.announcements {
            assert_ne!(a.as_slice(), b"attack at dawn!!");
        }
    }

    #[test]
    fn coalition_excluding_sender_learns_nothing() {
        // participants {0,1} pool all their pads; the residual XOR of the
        // remaining announcements (2,3,4) is identical whether 2, 3 or 4
        // sent, so the coalition cannot attribute the message.
        let residual = |sender: usize| -> Vec<u8> {
            let mut net = DcNet::new(b"fixed", 5).unwrap();
            let round = net.run_round(Some(sender), b"msg!").unwrap();
            // XOR of announcements of honest participants 2..5
            let mut out = vec![0u8; 4];
            for i in 2..5 {
                for (x, b) in out.iter_mut().zip(&round.announcements[i]) {
                    *x ^= b;
                }
            }
            out
        };
        let r2 = residual(2);
        let r3 = residual(3);
        let r4 = residual(4);
        assert_eq!(r2, r3);
        assert_eq!(r3, r4);
    }

    #[test]
    fn anonymity_degree_formula() {
        assert_eq!(anonymity_degree(100, 100), 0.0);
        let h = anonymity_degree(100, 0);
        assert!((h - 100f64.log2()).abs() < 1e-12);
        let h1 = anonymity_degree(100, 1);
        assert!((h1 - 0.99 * 99f64.log2()).abs() < 1e-12);
        // DC-nets dominate rerouting at equal c (no path leakage at all)
        assert!(h1 > 6.5);
    }

    #[test]
    fn config_validation() {
        assert!(DcNet::new(b"s", 1).is_err());
        let mut net = DcNet::new(b"s", 3).unwrap();
        assert!(net.run_round(Some(3), b"x").is_err());
    }
}
