//! Machine topology description (sockets/NUMA domains).

use std::sync::OnceLock;

/// A NUMA topology: how many worker threads belong to each domain.
///
/// The paper's platform is 2× Xeon 8260L — two domains of 24 cores
/// (48 threads with hyper-threading enabled per socket counted as cores
/// here; the runtime only needs the *grouping*, not the SMT detail).
///
/// # Example
///
/// ```
/// use pic_runtime::Topology;
///
/// let endeavour = Topology::uniform(2, 24);
/// assert_eq!(endeavour.total_threads(), 48);
/// assert_eq!(endeavour.domain_of(0), 0);
/// assert_eq!(endeavour.domain_of(24), 1);
/// ```
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Topology {
    threads_per_domain: Vec<usize>,
}

impl Topology {
    /// A single domain of `threads` workers (a UMA machine).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn single(threads: usize) -> Topology {
        assert!(threads > 0, "Topology: zero threads");
        Topology {
            threads_per_domain: vec![threads],
        }
    }

    /// `domains` domains of `threads_per_domain` workers each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn uniform(domains: usize, threads_per_domain: usize) -> Topology {
        assert!(domains > 0 && threads_per_domain > 0, "Topology: zero size");
        Topology {
            threads_per_domain: vec![threads_per_domain; domains],
        }
    }

    /// A topology with explicit per-domain thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `threads_per_domain` is empty or contains a zero.
    pub fn custom(threads_per_domain: Vec<usize>) -> Topology {
        assert!(
            !threads_per_domain.is_empty() && threads_per_domain.iter().all(|&t| t > 0),
            "Topology: empty or zero-sized domain"
        );
        Topology { threads_per_domain }
    }

    /// Number of NUMA domains.
    pub fn domains(&self) -> usize {
        self.threads_per_domain.len()
    }

    /// Worker threads in domain `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn threads_in(&self, d: usize) -> usize {
        self.threads_per_domain[d]
    }

    /// Total worker threads.
    pub fn total_threads(&self) -> usize {
        self.threads_per_domain.iter().sum()
    }

    /// Domain of global thread id `tid` (threads are numbered domain by
    /// domain).
    ///
    /// # Panics
    ///
    /// Panics if `tid >= total_threads()`.
    pub fn domain_of(&self, tid: usize) -> usize {
        let mut acc = 0;
        for (d, &n) in self.threads_per_domain.iter().enumerate() {
            acc += n;
            if tid < acc {
                return d;
            }
        }
        panic!(
            "thread id {tid} out of range ({} threads)",
            self.total_threads()
        );
    }

    /// Splits `items` work items into per-domain shares proportional to
    /// each domain's thread count (first domains get the remainder).
    /// Returns the item count per domain; the shares sum to `items`.
    pub fn partition_items(&self, items: usize) -> Vec<usize> {
        let total = self.total_threads();
        let mut out = Vec::with_capacity(self.domains());
        let mut assigned = 0usize;
        let mut threads_seen = 0usize;
        for &t in &self.threads_per_domain {
            threads_seen += t;
            // Cumulative rounding keeps the total exact.
            let upto = items * threads_seen / total;
            out.push(upto - assigned);
            assigned = upto;
        }
        out
    }
}

impl Default for Topology {
    /// One domain with as many threads as the host exposes. The count is
    /// read once per process: `available_parallelism` re-reads the cgroup
    /// CPU quota on every call (≈ 16 µs), and every ensemble build and
    /// field preparation asks for this topology.
    fn default() -> Topology {
        static HOST_THREADS: OnceLock<usize> = OnceLock::new();
        let threads = *HOST_THREADS
            .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Topology::single(threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layout() {
        let t = Topology::uniform(2, 24);
        assert_eq!(t.domains(), 2);
        assert_eq!(t.threads_in(1), 24);
        assert_eq!(t.total_threads(), 48);
    }

    #[test]
    fn domain_of_boundaries() {
        let t = Topology::custom(vec![3, 5, 2]);
        assert_eq!(t.domain_of(0), 0);
        assert_eq!(t.domain_of(2), 0);
        assert_eq!(t.domain_of(3), 1);
        assert_eq!(t.domain_of(7), 1);
        assert_eq!(t.domain_of(8), 2);
        assert_eq!(t.domain_of(9), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn domain_of_invalid_tid_panics() {
        Topology::single(4).domain_of(4);
    }

    #[test]
    fn partition_is_exact_and_proportional() {
        let t = Topology::custom(vec![3, 1]);
        let parts = t.partition_items(100);
        assert_eq!(parts.iter().sum::<usize>(), 100);
        assert_eq!(parts, vec![75, 25]);
    }

    #[test]
    fn partition_handles_remainders() {
        let t = Topology::uniform(3, 1);
        let parts = t.partition_items(10);
        assert_eq!(parts.iter().sum::<usize>(), 10);
        assert!(parts.iter().all(|&p| (3..=4).contains(&p)), "{parts:?}");
    }

    #[test]
    fn partition_zero_items() {
        let t = Topology::uniform(2, 4);
        assert_eq!(t.partition_items(0), vec![0, 0]);
    }

    #[test]
    fn default_is_single_domain() {
        let t = Topology::default();
        assert_eq!(t.domains(), 1);
        assert!(t.total_threads() >= 1);
    }

    #[test]
    fn default_is_the_same_on_every_call() {
        assert_eq!(Topology::default(), Topology::default());
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn zero_threads_panics() {
        let _ = Topology::single(0);
    }
}
