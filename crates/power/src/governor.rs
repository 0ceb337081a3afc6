//! Idle-state governors: which C-state does a core enter for an idle
//! interval?
//!
//! Energy accounting over a *finished* simulation can use the
//! [`OracleGovernor`] — it sees the true length of each idle interval and
//! picks the deepest state whose target residency fits, which is the
//! energy-optimal choice and mirrors what the paper's post-hoc
//! measurements captured. The [`MenuGovernor`] instead *predicts* the
//! coming idle length from recent history, like the Linux `menu`
//! governor the Linaro kernel shipped; comparing the two in the
//! ablation bench quantifies how much PBPL's grouped wakeups help a
//! realistic governor reach deep states.

use crate::cstate::CStateLadder;
use pc_sim::SimDuration;

/// Chooses a C-state index for each successive idle interval.
pub trait IdleGovernor {
    /// Called once per idle interval, in timeline order, with the actual
    /// interval length; returns the index into the ladder to charge.
    fn select(&mut self, ladder: &CStateLadder, idle_len: SimDuration) -> usize;

    /// Resets any learned state between runs.
    fn reset(&mut self) {}
}

/// Picks the deepest state that fits the actual idle length —
/// energy-optimal with hindsight.
#[derive(Debug, Clone, Default)]
pub(crate) struct OracleGovernor;

impl IdleGovernor for OracleGovernor {
    fn select(&mut self, ladder: &CStateLadder, idle_len: SimDuration) -> usize {
        ladder.deepest_fitting(idle_len)
    }
}

/// A menu-like predictive governor: predicts the next idle length as a
/// correction-factor-weighted moving average of recent idle lengths, then
/// picks the deepest state fitting the *prediction*. Mispredictions charge
/// real energy: a too-deep pick on a short idle wastes transition energy,
/// a too-shallow pick on a long idle wastes residency power — both
/// penalties appear in the accounting because the accountant charges the
/// *selected* state against the *actual* interval.
#[derive(Debug, Clone)]
pub(crate) struct MenuGovernor {
    history: [SimDuration; MenuGovernor::HISTORY],
    next: usize,
    filled: usize,
}

impl MenuGovernor {
    const HISTORY: usize = 8;

    /// A fresh governor with no history (predicts pessimistically short
    /// idles until warmed up).
    pub fn new() -> Self {
        MenuGovernor {
            history: [SimDuration::ZERO; Self::HISTORY],
            next: 0,
            filled: 0,
        }
    }

    fn predict(&self) -> SimDuration {
        if self.filled == 0 {
            return SimDuration::ZERO;
        }
        let sum: SimDuration = self.history[..self.filled].iter().copied().sum();
        sum / self.filled as u64
    }
}

impl Default for MenuGovernor {
    fn default() -> Self {
        Self::new()
    }
}

impl IdleGovernor for MenuGovernor {
    fn select(&mut self, ladder: &CStateLadder, idle_len: SimDuration) -> usize {
        let choice = ladder.deepest_fitting(self.predict());
        self.history[self.next] = idle_len;
        self.next = (self.next + 1) % Self::HISTORY;
        self.filled = (self.filled + 1).min(Self::HISTORY);
        choice
    }

    fn reset(&mut self) {
        *self = MenuGovernor::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cstate::CStateLadder;

    #[test]
    fn oracle_tracks_interval_exactly() {
        let ladder = CStateLadder::exynos_like();
        let mut g = OracleGovernor;
        assert_eq!(g.select(&ladder, SimDuration::from_micros(1)), 0);
        assert_eq!(g.select(&ladder, SimDuration::from_micros(500)), 1);
        assert_eq!(g.select(&ladder, SimDuration::from_secs(1)), 2);
    }

    #[test]
    fn menu_starts_shallow() {
        let ladder = CStateLadder::exynos_like();
        let mut g = MenuGovernor::new();
        // No history → predicts zero idle → shallowest.
        assert_eq!(g.select(&ladder, SimDuration::from_secs(1)), 0);
    }

    #[test]
    fn menu_learns_long_idles() {
        let ladder = CStateLadder::exynos_like();
        let mut g = MenuGovernor::new();
        for _ in 0..10 {
            g.select(&ladder, SimDuration::from_millis(10));
        }
        // History is now all long idles → predicts long → deepest.
        assert_eq!(g.select(&ladder, SimDuration::from_millis(10)), 2);
    }

    #[test]
    fn menu_backs_off_after_short_idles() {
        let ladder = CStateLadder::exynos_like();
        let mut g = MenuGovernor::new();
        for _ in 0..10 {
            g.select(&ladder, SimDuration::from_millis(10));
        }
        for _ in 0..10 {
            g.select(&ladder, SimDuration::from_micros(10));
        }
        // History flooded with short idles → shallow choice again.
        assert_eq!(g.select(&ladder, SimDuration::from_millis(10)), 0);
    }

    #[test]
    fn menu_reset_forgets() {
        let ladder = CStateLadder::exynos_like();
        let mut g = MenuGovernor::new();
        for _ in 0..10 {
            g.select(&ladder, SimDuration::from_millis(10));
        }
        g.reset();
        assert_eq!(g.select(&ladder, SimDuration::from_millis(10)), 0);
    }
}

/// Selector for the governor used by energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum GovernorKind {
    /// Deepest state that fits the actual idle interval (post-hoc
    /// optimal; the default for reproducing the paper's measurements).
    Oracle,
    /// Menu-like predictive governor: pays real energy for mispredicted
    /// idle lengths, like the Linaro kernel the paper ran.
    Menu,
}

impl GovernorKind {
    /// Instantiates a fresh governor of this kind.
    pub fn build(&self) -> Box<dyn IdleGovernor> {
        match self {
            GovernorKind::Oracle => Box::new(OracleGovernor),
            GovernorKind::Menu => Box::new(MenuGovernor::new()),
        }
    }
}

impl IdleGovernor for Box<dyn IdleGovernor> {
    fn select(&mut self, ladder: &CStateLadder, idle_len: SimDuration) -> usize {
        (**self).select(ladder, idle_len)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

#[cfg(test)]
mod kind_tests {
    use super::*;

    #[test]
    fn kinds_build_their_governors() {
        let ladder = CStateLadder::exynos_like();
        let mut oracle = GovernorKind::Oracle.build();
        let mut menu = GovernorKind::Menu.build();
        assert_eq!(oracle.select(&ladder, SimDuration::from_secs(1)), 2);
        assert_eq!(
            menu.select(&ladder, SimDuration::from_secs(1)),
            0,
            "menu starts cold"
        );
    }
}
