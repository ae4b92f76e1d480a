//! Adaptive early termination and per-query compute budgeting.
//!
//! A fixed beam width `L` is sized for the *hardest* queries, so the easy
//! majority keeps expanding candidates long after its top-`k` has
//! converged (the paper's Figure 11 beam sweep makes this visible: the
//! `L` needed for a target recall varies by an order of magnitude across
//! queries). A [`TerminationPolicy`] lets each query stop as soon as its
//! own convergence signal fires, and an optional hard `max_dists` budget
//! caps the worst case — the key query-time lever the authors' follow-up
//! work (*Toward Efficient and Scalable Design of In-Memory Graph-Based
//! Vector Search*) names for equal-recall throughput.
//!
//! All checks are **emission-time**: they run once per expansion, right
//! after the candidate buffer pops its best unexpanded entry, never per
//! distance evaluation. The hot loop (visited filter + 4-wide kernel)
//! is untouched, so [`TerminationPolicy::Fixed`] with no budget is
//! bit-identical to the pre-policy search by construction — the checks
//! reduce to one predictable branch per expansion.
//!
//! Because the traversal is deterministic, a terminated run's expansion
//! sequence is a *prefix* of the unterminated run's. Relaxing a policy
//! (larger `patience`, larger `eps`, larger `max_dists`) only lengthens
//! that prefix, and every expansion can only add candidates to the
//! buffer — which is why recall is monotone in each knob.

use crate::neighbor::SortedBuffer;
use std::str::FromStr;

/// When a beam search stops expanding candidates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum TerminationPolicy {
    /// Run until the candidate buffer stabilizes (every retained
    /// candidate expanded) — the paper's Algorithm 1, bit-identical to
    /// the pre-policy search.
    #[default]
    Fixed,
    /// Stop once `patience` consecutive expansions leave the result
    /// top-`k` (the buffer's leading `k` entries) unchanged. The cheap,
    /// robust signal: easy queries converge in a few hops and pay only
    /// `patience` extra expansions past convergence.
    Saturation {
        /// Consecutive non-improving expansions tolerated before stopping
        /// (clamped to at least 1).
        patience: usize,
    },
    /// Stop once the best *unexpanded* candidate is farther than
    /// `(1 + eps) ×` the current `k`-th result distance. The buffer is
    /// sorted and expansion is best-first, so when the next candidate is
    /// already outside the margin, everything after it is too.
    DistRatio {
        /// Relative margin over the `k`-th result distance (squared-L2
        /// space); `0.0` stops as soon as the frontier passes the k-th
        /// result.
        eps: f32,
    },
}

impl TerminationPolicy {
    /// Default `patience` when `saturation` is selected without a value.
    pub const DEFAULT_PATIENCE: usize = 8;
    /// Default `eps` when `distratio` is selected without a value.
    pub const DEFAULT_EPS: f32 = 0.2;
}

impl std::fmt::Display for TerminationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Fixed => write!(f, "fixed"),
            Self::Saturation { patience } => write!(f, "saturation:{patience}"),
            Self::DistRatio { eps } => write!(f, "distratio:{eps}"),
        }
    }
}

impl FromStr for TerminationPolicy {
    type Err = String;

    /// Parses `fixed`, `saturation[:patience]`, or `distratio[:eps]`
    /// (short forms `sat`/`ratio` accepted).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        match name {
            "fixed" => match arg {
                None => Ok(Self::Fixed),
                Some(_) => Err("`fixed` takes no argument".to_string()),
            },
            "saturation" | "sat" => {
                let patience = match arg {
                    None => Self::DEFAULT_PATIENCE,
                    Some(a) => a
                        .parse::<usize>()
                        .map_err(|_| format!("bad saturation patience `{a}`"))?,
                };
                if patience == 0 {
                    return Err("saturation patience must be at least 1".to_string());
                }
                Ok(Self::Saturation { patience })
            }
            "distratio" | "ratio" => {
                let eps = match arg {
                    None => Self::DEFAULT_EPS,
                    Some(a) => {
                        a.parse::<f32>().map_err(|_| format!("bad distratio eps `{a}`"))?
                    }
                };
                if !eps.is_finite() || eps < 0.0 {
                    return Err("distratio eps must be finite and >= 0".to_string());
                }
                Ok(Self::DistRatio { eps })
            }
            other => Err(format!(
                "unknown termination policy `{other}` \
                 (expected fixed | saturation[:patience] | distratio[:eps])"
            )),
        }
    }
}

/// The full per-query termination configuration: a policy plus an
/// optional hard compute budget.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Termination {
    /// When the traversal stops expanding.
    pub policy: TerminationPolicy,
    /// Hard cap on distance evaluations for the traversal (`0` =
    /// unlimited). Checked at emission time, so a search may overshoot
    /// by at most one expansion's neighbor list; the quantized exact
    /// rerank still runs after a budget stop (returned distances stay
    /// exact).
    pub max_dists: usize,
}

impl Termination {
    /// The pre-policy behavior: run to buffer stabilization, no budget.
    pub const FIXED: Termination =
        Termination { policy: TerminationPolicy::Fixed, max_dists: 0 };

    /// `true` when this configuration can never stop a search early —
    /// the traversal takes the exact pre-policy path.
    #[inline]
    pub fn is_fixed(&self) -> bool {
        matches!(self.policy, TerminationPolicy::Fixed) && self.max_dists == 0
    }
}

/// Per-search working state for a [`Termination`]: owns the saturation
/// fingerprint so the traversal only calls two inlineable hooks.
#[derive(Clone, Copy, Debug)]
pub struct TermState {
    term: Termination,
    k: usize,
    /// `(retained.min(k), k-th id, k-th dist bits)` after the last
    /// expansion — the top-`k` frontier fingerprint saturation watches.
    fingerprint: (usize, u32, u32),
    stale: usize,
    saturated: bool,
}

impl TermState {
    /// Fresh state for one search returning `k` results.
    pub fn new(term: Termination, k: usize) -> Self {
        Self { term, k: k.max(1), fingerprint: (usize::MAX, 0, 0), stale: 0, saturated: false }
    }

    /// Emission-time check: called right after `next_unexpanded()` pops
    /// the closest unexpanded candidate (distance `current_dist`) and
    /// before its neighbor list is touched. `evaluated` is the search's
    /// running evaluation count. Returns `true` to stop the traversal.
    #[inline]
    pub fn should_stop(
        &self,
        current_dist: f32,
        buffer: &SortedBuffer,
        evaluated: usize,
    ) -> bool {
        if self.term.is_fixed() {
            return false;
        }
        if self.term.max_dists > 0 && evaluated >= self.term.max_dists {
            return true;
        }
        match self.term.policy {
            TerminationPolicy::Fixed => false,
            TerminationPolicy::Saturation { .. } => self.saturated,
            TerminationPolicy::DistRatio { eps } => match buffer.kth(self.k) {
                // Best-first order: the popped candidate is the closest
                // unexpanded one, so once it falls outside the margin the
                // whole frontier has.
                Some(kth) => current_dist > (1.0 + eps) * kth.dist,
                None => false,
            },
        }
    }

    /// Post-expansion hook: called after every expansion's evaluations
    /// were inserted. Updates the saturation fingerprint; a no-op for
    /// every other policy.
    #[inline]
    pub fn note_expansion(&mut self, buffer: &SortedBuffer) {
        if let TerminationPolicy::Saturation { patience } = self.term.policy {
            let fp = match buffer.kth(self.k.min(buffer.len().max(1))) {
                Some(kth) => (buffer.len().min(self.k), kth.id, kth.dist.to_bits()),
                None => (0, 0, 0),
            };
            if fp == self.fingerprint {
                self.stale += 1;
                if self.stale >= patience.max(1) {
                    self.saturated = true;
                }
            } else {
                self.fingerprint = fp;
                self.stale = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::Neighbor;

    #[test]
    fn policy_parsing_roundtrips() {
        assert_eq!("fixed".parse::<TerminationPolicy>().unwrap(), TerminationPolicy::Fixed);
        assert_eq!(
            "saturation".parse::<TerminationPolicy>().unwrap(),
            TerminationPolicy::Saturation { patience: TerminationPolicy::DEFAULT_PATIENCE }
        );
        assert_eq!(
            "sat:3".parse::<TerminationPolicy>().unwrap(),
            TerminationPolicy::Saturation { patience: 3 }
        );
        assert_eq!(
            "distratio:0.5".parse::<TerminationPolicy>().unwrap(),
            TerminationPolicy::DistRatio { eps: 0.5 }
        );
        assert_eq!(
            "ratio".parse::<TerminationPolicy>().unwrap(),
            TerminationPolicy::DistRatio { eps: TerminationPolicy::DEFAULT_EPS }
        );
        for p in [
            TerminationPolicy::Fixed,
            TerminationPolicy::Saturation { patience: 5 },
            TerminationPolicy::DistRatio { eps: 0.25 },
        ] {
            assert_eq!(p.to_string().parse::<TerminationPolicy>().unwrap(), p);
        }
        assert!("sat:0".parse::<TerminationPolicy>().is_err());
        assert!("distratio:-1".parse::<TerminationPolicy>().is_err());
        assert!("bogus".parse::<TerminationPolicy>().is_err());
        assert!("fixed:3".parse::<TerminationPolicy>().is_err());
    }

    #[test]
    fn fixed_never_stops() {
        let state = TermState::new(Termination::FIXED, 3);
        let buffer = SortedBuffer::new(4);
        assert!(!state.should_stop(1e30, &buffer, usize::MAX - 1));
    }

    #[test]
    fn budget_stops_at_max_dists() {
        let term = Termination { policy: TerminationPolicy::Fixed, max_dists: 100 };
        assert!(!term.is_fixed());
        let state = TermState::new(term, 3);
        let buffer = SortedBuffer::new(4);
        assert!(!state.should_stop(0.0, &buffer, 99));
        assert!(state.should_stop(0.0, &buffer, 100));
    }

    #[test]
    fn dist_ratio_stops_outside_margin() {
        let term =
            Termination { policy: TerminationPolicy::DistRatio { eps: 0.5 }, max_dists: 0 };
        let state = TermState::new(term, 2);
        let mut buffer = SortedBuffer::new(4);
        buffer.insert(Neighbor::new(0, 1.0));
        // Fewer than k results: never stop.
        assert!(!state.should_stop(100.0, &buffer, 10));
        buffer.insert(Neighbor::new(1, 2.0));
        // k-th dist = 2.0, margin = 3.0.
        assert!(!state.should_stop(2.9, &buffer, 10));
        assert!(state.should_stop(3.1, &buffer, 10));
    }

    #[test]
    fn saturation_trips_after_patience_stale_expansions() {
        let term =
            Termination { policy: TerminationPolicy::Saturation { patience: 2 }, max_dists: 0 };
        let mut state = TermState::new(term, 1);
        let mut buffer = SortedBuffer::new(4);
        buffer.insert(Neighbor::new(0, 5.0));
        state.note_expansion(&buffer); // fingerprint set
        assert!(!state.should_stop(0.0, &buffer, 0));
        state.note_expansion(&buffer); // stale 1
        assert!(!state.should_stop(0.0, &buffer, 0));
        // An improving expansion resets the counter.
        buffer.insert(Neighbor::new(1, 1.0));
        state.note_expansion(&buffer);
        assert!(!state.should_stop(0.0, &buffer, 0));
        state.note_expansion(&buffer); // stale 1
        state.note_expansion(&buffer); // stale 2 -> saturated
        assert!(state.should_stop(0.0, &buffer, 0));
    }
}
