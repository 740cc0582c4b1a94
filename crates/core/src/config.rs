//! Agent configuration: certification mode and timing parameters.

/// Which certification mechanisms the 2PCA applies.
///
/// `Full` is the paper's protocol (2CM). The others are in-family ablations
/// used by the anomaly replays and benchmarks: each one re-admits a specific
/// anomaly class, demonstrating why the corresponding mechanism exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CertifierMode {
    /// Extended prepare certification + basic prepare certification +
    /// serial-number commit certification (§§4–5, the Appendix algorithms).
    #[default]
    Full,
    /// No certification at all: READY to every PREPARE, immediate local
    /// commit on COMMIT. Resubmission still happens. Admits both global and
    /// local view distortions (histories H1–H3).
    NoCertification,
    /// Basic prepare certification only; commits are immediate. Prevents
    /// global view distortion but admits local view distortion (H2, H3).
    PrepareCertOnly,
    /// Prepare certification + the §5.3 strawman commit rule: local commits
    /// follow the order in which PREPAREs were certified at *this* site,
    /// with no serial numbers. Fixes H2 (directly conflicting globals
    /// prepare in serialization order everywhere) but not H3 (indirect
    /// conflicts let prepare orders differ across sites).
    PrepareOrder,
    /// The predeclared-total-order comparator the paper criticizes in §5.2
    /// ("all global transactions [are] serialized in the same order even if
    /// they could not have caused any problems", cf. Elmagarmid & Du): a
    /// PREPARE is refused whenever its serial number is below the largest
    /// serial number *ever prepared* at this agent, and commits follow
    /// serial-number order. No alive-interval certification.
    TicketOrder,
}

impl CertifierMode {
    /// Whether the basic (alive-interval) prepare certification runs.
    pub fn prepare_certification(&self) -> bool {
        !matches!(
            self,
            CertifierMode::NoCertification | CertifierMode::TicketOrder
        )
    }

    /// Whether the §5.3 extension (max-committed-SN check) runs.
    pub fn prepare_extension(&self) -> bool {
        !matches!(
            self,
            CertifierMode::NoCertification
                | CertifierMode::PrepareCertOnly
                | CertifierMode::PrepareOrder
                | CertifierMode::TicketOrder
        )
    }

    /// Whether local commits are ordered by serial number.
    pub fn sn_commit_certification(&self) -> bool {
        !matches!(
            self,
            CertifierMode::NoCertification
                | CertifierMode::PrepareCertOnly
                | CertifierMode::PrepareOrder
        )
    }

    /// Whether local commits are ordered by local prepare order.
    pub fn prepare_order_commit(&self) -> bool {
        matches!(self, CertifierMode::PrepareOrder)
    }

    /// Whether PREPAREs must arrive in serial-number order (the ticket
    /// comparator's predeclared total order).
    pub fn ticket_prepare_check(&self) -> bool {
        matches!(self, CertifierMode::TicketOrder)
    }

    /// How long a comparator's held COMMIT waits before the agent commits
    /// it anyway, in local-clock µs since the COMMIT arrived; checked
    /// whenever the hold is retried, which the alive tick does while the
    /// entry stays in the table. The in-family anomaly baselines can hold
    /// a COMMIT forever without it, and a forced commit surfaces exactly
    /// the anomaly the run measures. `Full` has no bound: its serial
    /// numbers form a total order, so a held COMMIT waits, as a voted
    /// participant waits for the decision, until the smaller serial number
    /// leaves the table.
    pub fn forced_commit_after_us(&self) -> Option<u64> {
        match self {
            CertifierMode::Full => None,
            CertifierMode::NoCertification
            | CertifierMode::PrepareCertOnly
            | CertifierMode::PrepareOrder
            | CertifierMode::TicketOrder => Some(1_000_000),
        }
    }
}

/// Mode and alive-check period of one 2PC Agent, in microseconds of
/// *local* clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentConfig {
    /// Certification mechanisms in force.
    pub mode: CertifierMode,
    /// Appendix A: period of the alive check while prepared. The same
    /// tick is Appendix C's retry of a held COMMIT.
    pub alive_check_interval_us: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            mode: CertifierMode::Full,
            alive_check_interval_us: 10_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mode_enables_everything() {
        let m = CertifierMode::Full;
        assert!(m.prepare_certification());
        assert!(m.prepare_extension());
        assert!(m.sn_commit_certification());
        assert!(!m.prepare_order_commit());
    }

    #[test]
    fn naive_mode_disables_everything() {
        let m = CertifierMode::NoCertification;
        assert!(!m.prepare_certification());
        assert!(!m.prepare_extension());
        assert!(!m.sn_commit_certification());
    }

    #[test]
    fn prepare_order_mode() {
        let m = CertifierMode::PrepareOrder;
        assert!(m.prepare_certification());
        assert!(!m.prepare_extension());
        assert!(!m.sn_commit_certification());
        assert!(m.prepare_order_commit());
    }

    #[test]
    fn only_the_comparators_force_a_held_commit() {
        assert_eq!(CertifierMode::Full.forced_commit_after_us(), None);
        for m in [
            CertifierMode::NoCertification,
            CertifierMode::PrepareCertOnly,
            CertifierMode::PrepareOrder,
            CertifierMode::TicketOrder,
        ] {
            assert_eq!(m.forced_commit_after_us(), Some(1_000_000), "{m:?}");
        }
    }

    #[test]
    fn default_config_is_full() {
        let c = AgentConfig::default();
        assert_eq!(c.mode, CertifierMode::Full);
        assert!(c.alive_check_interval_us > 0);
    }
}
