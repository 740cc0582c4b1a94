//! Per-site heterogeneity profile (D-autonomy).
//!
//! The protocol never looks inside an LDBS; what it is sensitive to is that
//! different sites may *behave* differently while still satisfying the LTM
//! assumptions. The profile captures the behavioural degrees of freedom our
//! engine exposes: decomposition order (two sites may scan the same range in
//! opposite orders — different lock-acquisition orders change deadlock and
//! waiting patterns) and the local deadlock victim policy.

/// How the LTM picks a victim when its waits-for graph has a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimPolicy {
    /// Abort the youngest participant of the cycle (fewest completed ops).
    #[default]
    Youngest,
    /// Abort the cycle participant holding the fewest locks.
    FewestLocks,
}

/// Behavioural profile of one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteProfile {
    /// Human-readable DBMS label ("ingres-like", "sybase-like", …); purely
    /// descriptive.
    pub dbms: String,
    /// Scan ranges in descending key order (a different access-path
    /// implementation of the same SQL).
    pub descending_decomposition: bool,
    /// Local deadlock victim selection.
    pub victim_policy: VictimPolicy,
}

impl Default for SiteProfile {
    fn default() -> Self {
        SiteProfile {
            dbms: "generic-s2pl".to_owned(),
            descending_decomposition: false,
            victim_policy: VictimPolicy::Youngest,
        }
    }
}

impl SiteProfile {
    /// The INGRES-flavoured profile used in the HERMES prototype notes (§7):
    /// ascending scans.
    pub fn ingres_like() -> SiteProfile {
        SiteProfile {
            dbms: "ingres-like".to_owned(),
            descending_decomposition: false,
            victim_policy: VictimPolicy::Youngest,
        }
    }

    /// A Sybase-SQL-Server-flavoured profile: descending scans and a
    /// different victim policy, exercising heterogeneous behaviour.
    pub fn sybase_like() -> SiteProfile {
        SiteProfile {
            dbms: "sybase-like".to_owned(),
            descending_decomposition: true,
            victim_policy: VictimPolicy::FewestLocks,
        }
    }

    /// Alternate profiles per site index, so multi-site setups are
    /// heterogeneous by default.
    pub fn for_site(index: u32) -> SiteProfile {
        if index.is_multiple_of(2) {
            SiteProfile::ingres_like()
        } else {
            SiteProfile::sybase_like()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ascending() {
        assert!(!SiteProfile::default().descending_decomposition);
    }

    #[test]
    fn alternating_site_profiles() {
        assert_eq!(SiteProfile::for_site(0).dbms, "ingres-like");
        assert_eq!(SiteProfile::for_site(1).dbms, "sybase-like");
        assert_eq!(SiteProfile::for_site(2).dbms, "ingres-like");
    }

    #[test]
    fn profiles_differ() {
        assert_ne!(SiteProfile::ingres_like(), SiteProfile::sybase_like());
    }
}
