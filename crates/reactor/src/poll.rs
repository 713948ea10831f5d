//! Readiness polling with fair rotation over slab-registered sources.

/// Identifies a registered [`Source`] within one [`Poller`].
///
/// Tokens are slab indexes: stable for the lifetime of the registration,
/// recycled after [`Poller::deregister`]. Callers that hold tokens across
/// deregistrations should pair them with a generation stamp (the
/// [`crate::TimerWheel`] expiry path does exactly this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Anything the reactor can poll for readiness.
///
/// `ready` must be cheap (the poller calls it once per source per poll
/// round) and side-effect free apart from internal caching: returning
/// `true` means a subsequent read/drain would make progress *now*. It
/// takes `&mut self` so implementations may refresh an internal peek
/// buffer.
pub trait Source {
    /// Whether this source currently has work available.
    fn ready(&mut self) -> bool;
}

/// Readiness poller: a slab of [`Source`]s scanned with fair rotation.
///
/// Each [`Poller::poll`] round starts scanning one past where the
/// previous round stopped, so under sustained load every source is
/// visited before any source is visited twice — a busy connection cannot
/// starve the rest. This is level-triggered polling over in-process
/// sources (channels, non-blocking transports): the collection plane
/// polls its in-memory pipes with a channel peek and its TCP sockets with
/// a non-blocking `peek`. An epoll-backed `Source` would slot in without
/// changing the worker loop.
#[derive(Debug, Default)]
pub struct Poller<S> {
    slots: Vec<Option<S>>,
    free: Vec<usize>,
    /// Slot index the next poll round starts scanning from.
    cursor: usize,
    len: usize,
}

impl<S: Source> Poller<S> {
    /// Create an empty poller.
    pub fn new() -> Self {
        Poller {
            slots: Vec::new(),
            free: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Register a source, returning its token. Slots freed by
    /// [`Poller::deregister`] are recycled before the slab grows.
    pub fn register(&mut self, source: S) -> Token {
        self.len += 1;
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(source);
                Token(idx)
            }
            None => {
                self.slots.push(Some(source));
                Token(self.slots.len() - 1)
            }
        }
    }

    /// Remove a source, returning it. `None` if the token is stale.
    pub fn deregister(&mut self, token: Token) -> Option<S> {
        let source = self.slots.get_mut(token.0)?.take()?;
        self.free.push(token.0);
        self.len -= 1;
        Some(source)
    }

    /// Borrow a registered source mutably. `None` if the token is stale.
    pub fn get_mut(&mut self, token: Token) -> Option<&mut S> {
        self.slots.get_mut(token.0)?.as_mut()
    }

    /// Visit every registered source with its token, in slot order
    /// (shutdown paths drain per-source state through this).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Token, &mut S)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_mut().map(|s| (Token(i), s)))
    }

    /// One poll round: scan every registered source once, starting one
    /// past where the previous round stopped, and append the tokens of
    /// ready sources to `ready` (cleared first) up to `budget`. Returns
    /// the number of ready tokens collected. When the budget truncates the
    /// scan, the cursor stops at the truncation point, so the next round
    /// resumes there — fairness holds across rounds, not just within one.
    pub fn poll(&mut self, ready: &mut Vec<Token>, budget: usize) -> usize {
        ready.clear();
        if self.slots.is_empty() || budget == 0 {
            return 0;
        }
        let n = self.slots.len();
        let start = self.cursor % n;
        for step in 0..n {
            let idx = (start + step) % n;
            if let Some(source) = self.slots[idx].as_mut() {
                if source.ready() {
                    ready.push(Token(idx));
                    if ready.len() == budget {
                        self.cursor = (idx + 1) % n;
                        return ready.len();
                    }
                }
            }
        }
        self.cursor = start; // full scan: resume from the same origin
        ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source that is ready for a scripted number of polls.
    struct Scripted {
        remaining: usize,
    }

    impl Source for Scripted {
        fn ready(&mut self) -> bool {
            if self.remaining > 0 {
                self.remaining -= 1;
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn registers_polls_and_deregisters() {
        let mut p = Poller::new();
        let a = p.register(Scripted { remaining: 1 });
        let b = p.register(Scripted { remaining: 0 });
        assert_eq!(p.len(), 2);
        let mut ready = Vec::new();
        assert_eq!(p.poll(&mut ready, usize::MAX), 1);
        assert_eq!(ready, vec![a]);
        assert!(p.deregister(b).is_some());
        assert!(p.deregister(b).is_none(), "double deregister is stale");
        assert_eq!(p.len(), 1);
        assert!(p.get_mut(a).is_some());
        assert!(p.get_mut(b).is_none());
    }

    #[test]
    fn slots_are_recycled() {
        let mut p = Poller::new();
        let a = p.register(Scripted { remaining: 0 });
        p.deregister(a).unwrap();
        let b = p.register(Scripted { remaining: 0 });
        assert_eq!(a, b, "freed slot is reused");
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn budget_truncates_and_rotation_resumes_fairly() {
        let mut p = Poller::new();
        let tokens: Vec<Token> = (0..4)
            .map(|_| {
                p.register(Scripted {
                    remaining: usize::MAX,
                })
            })
            .collect();
        let mut ready = Vec::new();
        // Budget 2: first round serves sources 0 and 1…
        assert_eq!(p.poll(&mut ready, 2), 2);
        assert_eq!(ready, vec![tokens[0], tokens[1]]);
        // …and the next round resumes at source 2, not back at 0.
        assert_eq!(p.poll(&mut ready, 2), 2);
        assert_eq!(ready, vec![tokens[2], tokens[3]]);
        assert_eq!(p.poll(&mut ready, 2), 2);
        assert_eq!(ready, vec![tokens[0], tokens[1]]);
    }

    #[test]
    fn iter_mut_visits_live_slots_only() {
        let mut p = Poller::new();
        let a = p.register(Scripted { remaining: 0 });
        let b = p.register(Scripted { remaining: 0 });
        p.deregister(a).unwrap();
        let visited: Vec<Token> = p.iter_mut().map(|(t, _)| t).collect();
        assert_eq!(visited, vec![b]);
    }

    #[test]
    fn empty_poller_polls_nothing() {
        let mut p: Poller<Scripted> = Poller::new();
        let mut ready = vec![Token(99)];
        assert_eq!(p.poll(&mut ready, 8), 0);
        assert!(ready.is_empty(), "output vector is cleared");
    }
}
