//! The Gmail → Google ID side channel.
//!
//! §5: the authors found that responses of Gmail's e-mail search
//! functionality embed the account's Google ID, letting a third party map
//! any Gmail address to the ID under which its Play reviews are posted.
//! They reported this to Google's VRP (issue 156369357); Google ruled it
//! "intended behavior". [`GoogleIdDirectory`] models that lookup.

use racket_types::{AccountId, GoogleId};
use std::collections::HashMap;

/// Registry mapping Gmail accounts to their Google IDs.
///
/// In the simulation, accounts are created with their Google identity at
/// fleet-generation time; the directory is the *server-side* view that the
/// Google-ID crawler queries, one lookup per registered Gmail address.
/// Lookups take `&self`, so the study's assembly phase can resolve
/// accounts from several worker threads at once.
#[derive(Debug, Default, Clone)]
pub struct GoogleIdDirectory {
    by_account: HashMap<AccountId, GoogleId>,
}

impl GoogleIdDirectory {
    /// Create an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a Gmail account's identity (done at account creation).
    pub fn register(&mut self, account: AccountId, google_id: GoogleId) {
        self.by_account.insert(account, google_id);
    }

    /// Merge every registration of `other` into this directory (used when
    /// per-device directories built in parallel are folded into the fleet
    /// directory).
    pub fn absorb(&mut self, other: GoogleIdDirectory) {
        self.by_account.extend(other.by_account);
    }

    /// Resolve an account to its Google ID — the Gmail-search side channel.
    pub fn lookup(&self, account: AccountId) -> Option<GoogleId> {
        self.by_account.get(&account).copied()
    }

    /// Number of registered accounts.
    pub fn len(&self) -> usize {
        self.by_account.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.by_account.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_merges_registrations_and_counts() {
        let mut a = GoogleIdDirectory::new();
        a.register(AccountId(1), GoogleId(100));
        a.lookup(AccountId(1));
        let mut b = GoogleIdDirectory::new();
        b.register(AccountId(2), GoogleId(200));
        b.lookup(AccountId(2));
        a.absorb(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.lookup(AccountId(2)), Some(GoogleId(200)));
    }

    #[test]
    fn register_and_lookup() {
        let mut d = GoogleIdDirectory::new();
        d.register(AccountId(1), GoogleId(100));
        assert_eq!(d.lookup(AccountId(1)), Some(GoogleId(100)));
        assert_eq!(d.lookup(AccountId(2)), None);
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn re_register_overwrites() {
        let mut d = GoogleIdDirectory::new();
        d.register(AccountId(1), GoogleId(100));
        d.register(AccountId(1), GoogleId(200));
        assert_eq!(d.lookup(AccountId(1)), Some(GoogleId(200)));
        assert_eq!(d.len(), 1);
    }
}
