//! Trace-driven I-cache re-simulation (Figure 6).
//!
//! The paper: *"In our simulations, we use the references that miss in
//! the caches of the real machine to simulate larger caches."* We do the
//! same: the instruction-miss stream captured by the analyzer (both OS
//! and application fetches, as the paper notes) is replayed into caches
//! of different sizes and associativities, counting how many OS misses
//! remain — including the floor imposed by I-cache invalidations
//! (*Inval* misses), which is what saturates Pmake and Multpgm at
//! 256 KB in the paper.

use oscar_machine::addr::{BlockAddr, Ppn};
use oscar_machine::cache::{Cache, Lookup};
use oscar_machine::config::CacheConfig;

use crate::analyze::IStreamItem;

/// Result of re-simulating one cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResimPoint {
    /// Cache size in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub assoc: u32,
    /// OS misses remaining.
    pub os_misses: u64,
    /// OS misses caused by invalidations (the *Inval* floor).
    pub os_inval_misses: u64,
    /// Application misses remaining (not plotted by the paper, but
    /// reported for completeness).
    pub app_misses: u64,
}

/// Incremental re-simulation of one I-cache geometry: feed the
/// instruction-miss stream item by item (the streaming pipeline does
/// this online, so no stream needs to be materialized) and read the
/// [`ResimPoint`] off at the end.
#[derive(Debug)]
pub struct IResimBank {
    config: CacheConfig,
    caches: Vec<Cache>,
    // Blocks dropped by invalidation, per CPU: the next miss on them is
    // an Inval miss.
    invalidated: Vec<crate::classify::BlockSet>,
    os_misses: u64,
    os_inval: u64,
    app_misses: u64,
    /// Per-CPU `(os_misses, os_inval)` split of the totals above, for
    /// exhibit provenance.
    by_cpu: Vec<(u64, u64)>,
}

impl IResimBank {
    /// A bank of `num_cpus` caches of the given geometry.
    pub fn new(num_cpus: usize, config: CacheConfig) -> Self {
        IResimBank {
            config,
            caches: (0..num_cpus).map(|_| Cache::new(config)).collect(),
            invalidated: (0..num_cpus).map(|_| Default::default()).collect(),
            os_misses: 0,
            os_inval: 0,
            app_misses: 0,
            by_cpu: vec![(0, 0); num_cpus],
        }
    }

    /// Replays one stream item.
    pub fn push(&mut self, item: &IStreamItem) {
        match *item {
            IStreamItem::Fetch { cpu, block, os } => {
                let c = &mut self.caches[cpu as usize];
                let b = BlockAddr(block);
                match c.access(b, false) {
                    Lookup::Hit => {}
                    Lookup::Miss { .. } => {
                        if os {
                            self.os_misses += 1;
                            self.by_cpu[cpu as usize].0 += 1;
                            if self.invalidated[cpu as usize].clear(b.0) {
                                self.os_inval += 1;
                                self.by_cpu[cpu as usize].1 += 1;
                            }
                        } else {
                            self.app_misses += 1;
                            self.invalidated[cpu as usize].clear(b.0);
                        }
                    }
                }
            }
            IStreamItem::Flush { ppn } => {
                for (c, inv) in self.caches.iter_mut().zip(&mut self.invalidated) {
                    let page = Ppn(ppn);
                    // Record which blocks were actually resident, so the
                    // re-miss is attributable to the invalidation.
                    let resident: Vec<BlockAddr> =
                        c.iter_resident().filter(|b| b.page() == page).collect();
                    c.invalidate_page(page);
                    for b in resident {
                        inv.set(b.0);
                    }
                }
            }
        }
    }

    /// The accumulated result.
    pub fn point(&self) -> ResimPoint {
        ResimPoint {
            size_bytes: self.config.size_bytes,
            assoc: self.config.assoc,
            os_misses: self.os_misses,
            os_inval_misses: self.os_inval,
            app_misses: self.app_misses,
        }
    }

    /// Per-CPU `(os_misses, os_inval_misses)` contributions; the sums
    /// equal the [`ResimPoint`] totals.
    pub fn per_cpu(&self) -> Vec<(u64, u64)> {
        self.by_cpu.clone()
    }
}

/// Replays the instruction-miss stream into per-CPU caches of the given
/// geometry.
pub fn resim(istream: &[IStreamItem], num_cpus: usize, config: CacheConfig) -> ResimPoint {
    let mut bank = IResimBank::new(num_cpus, config);
    for item in istream {
        bank.push(item);
    }
    bank.point()
}

/// The cache geometries of the Figure 6 sweep: direct-mapped and two-way
/// caches from 64 KB to 1 MB (the paper cannot simulate the 64 KB
/// two-way point and neither do we).
pub fn figure6_configs() -> Vec<CacheConfig> {
    let sizes = [64, 128, 256, 512, 1024u64];
    let mut out: Vec<CacheConfig> = sizes
        .iter()
        .map(|&kb| CacheConfig::direct_mapped(kb * 1024))
        .collect();
    out.extend(
        sizes[1..]
            .iter()
            .map(|&kb| CacheConfig::set_associative(kb * 1024, 2)),
    );
    out
}

/// The Figure 6 sweep over a materialized stream.
pub fn figure6_sweep(istream: &[IStreamItem], num_cpus: usize) -> Vec<ResimPoint> {
    figure6_configs()
        .into_iter()
        .map(|c| resim(istream, num_cpus, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(cpu: u8, block: u64, os: bool) -> IStreamItem {
        IStreamItem::Fetch { cpu, block, os }
    }

    #[test]
    fn bigger_caches_never_miss_more() {
        // A conflict-heavy OS stream: blocks 0 and 4096 conflict in a
        // 64KB DM cache (4096 sets) but not in 128KB.
        let mut stream = Vec::new();
        for _ in 0..100 {
            stream.push(fetch(0, 0, true));
            stream.push(fetch(0, 4096, true));
        }
        let small = resim(&stream, 1, CacheConfig::direct_mapped(64 * 1024));
        let big = resim(&stream, 1, CacheConfig::direct_mapped(128 * 1024));
        assert_eq!(small.os_misses, 200, "every access conflicts");
        assert_eq!(big.os_misses, 2, "only the cold misses remain");
        assert!(big.os_misses <= small.os_misses);
    }

    #[test]
    fn associativity_removes_conflicts() {
        let mut stream = Vec::new();
        for _ in 0..50 {
            stream.push(fetch(0, 0, true));
            stream.push(fetch(0, 4096, true));
        }
        let dm = resim(&stream, 1, CacheConfig::direct_mapped(64 * 1024));
        let sa = resim(&stream, 1, CacheConfig::set_associative(64 * 1024, 2));
        assert!(sa.os_misses < dm.os_misses);
        assert_eq!(sa.os_misses, 2);
    }

    #[test]
    fn inval_misses_floor_survives_cache_growth() {
        // OS fetches a page's block, the page is invalidated, refetched.
        let blk = Ppn(5).base().block().0;
        let mut stream = Vec::new();
        for _ in 0..20 {
            stream.push(fetch(0, blk, true));
            stream.push(IStreamItem::Flush { ppn: 5 });
        }
        for kb in [64u64, 1024] {
            let p = resim(&stream, 1, CacheConfig::direct_mapped(kb * 1024));
            assert_eq!(p.os_misses, 20);
            assert_eq!(
                p.os_inval_misses, 19,
                "all but the cold miss are Inval at {kb}KB"
            );
        }
    }

    #[test]
    fn app_and_os_counted_separately() {
        let stream = vec![fetch(0, 1, true), fetch(0, 2, false), fetch(1, 1, true)];
        let p = resim(&stream, 2, CacheConfig::direct_mapped(64 * 1024));
        assert_eq!(p.os_misses, 2, "per-CPU caches: both OS fetches cold-miss");
        assert_eq!(p.app_misses, 1);
    }

    #[test]
    fn sweep_covers_both_associativities() {
        let stream = vec![fetch(0, 1, true)];
        let points = figure6_sweep(&stream, 1);
        assert_eq!(points.len(), 9);
        assert!(points.iter().any(|p| p.assoc == 2));
        assert!(points
            .windows(2)
            .take(4)
            .all(|w| w[1].os_misses <= w[0].os_misses));
    }
}

use crate::analyze::DStreamItem;

/// Result of re-simulating a data-cache geometry over the data-miss
/// stream, with coherence replayed (writes invalidate other caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DResimPoint {
    /// Cache size in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub assoc: u32,
    /// OS data misses remaining.
    pub os_misses: u64,
    /// OS data misses remaining that are coherence (sharing) misses —
    /// the component larger caches cannot remove.
    pub os_sharing_misses: u64,
}

/// Incremental D-cache re-simulation of one geometry (the data-stream
/// counterpart of [`IResimBank`]).
#[derive(Debug)]
pub struct DResimBank {
    config: CacheConfig,
    caches: Vec<Cache>,
    invalidated: Vec<crate::classify::BlockSet>,
    os_misses: u64,
    os_sharing: u64,
    /// Per-CPU `(os_misses, os_sharing)` split, for exhibit provenance.
    by_cpu: Vec<(u64, u64)>,
}

impl DResimBank {
    /// A bank of `num_cpus` caches of the given geometry.
    pub fn new(num_cpus: usize, config: CacheConfig) -> Self {
        DResimBank {
            config,
            caches: (0..num_cpus).map(|_| Cache::new(config)).collect(),
            invalidated: (0..num_cpus).map(|_| Default::default()).collect(),
            os_misses: 0,
            os_sharing: 0,
            by_cpu: vec![(0, 0); num_cpus],
        }
    }

    /// Replays one stream item, invalidating on writes as the snooping
    /// protocol does.
    pub fn push(&mut self, item: &DStreamItem) {
        let b = BlockAddr(item.block);
        let i = item.cpu as usize;
        match self.caches[i].access(b, item.write) {
            Lookup::Hit => {}
            Lookup::Miss { .. } => {
                if item.os {
                    self.os_misses += 1;
                    self.by_cpu[i].0 += 1;
                    if self.invalidated[i].clear(b.0) {
                        self.os_sharing += 1;
                        self.by_cpu[i].1 += 1;
                    }
                } else {
                    self.invalidated[i].clear(b.0);
                }
            }
        }
        if item.write {
            for (j, c) in self.caches.iter_mut().enumerate() {
                if j != i && c.invalidate(b).is_some() {
                    self.invalidated[j].set(b.0);
                }
            }
        }
    }

    /// The accumulated result.
    pub fn point(&self) -> DResimPoint {
        DResimPoint {
            size_bytes: self.config.size_bytes,
            assoc: self.config.assoc,
            os_misses: self.os_misses,
            os_sharing_misses: self.os_sharing,
        }
    }

    /// Per-CPU `(os_misses, os_sharing_misses)` contributions; the sums
    /// equal the [`DResimPoint`] totals.
    pub fn per_cpu(&self) -> Vec<(u64, u64)> {
        self.by_cpu.clone()
    }
}

/// Replays the data-miss stream into per-CPU caches of the given
/// geometry, invalidating on writes as the snooping protocol does.
pub fn resim_dcache(dstream: &[DStreamItem], num_cpus: usize, config: CacheConfig) -> DResimPoint {
    let mut bank = DResimBank::new(num_cpus, config);
    for item in dstream {
        bank.push(item);
    }
    bank.point()
}

/// The geometries of the Section 4.2.2 D-cache sweep: 256 KB to 4 MB
/// direct-mapped.
pub fn dcache_configs() -> Vec<CacheConfig> {
    [256u64, 512, 1024, 2048, 4096]
        .iter()
        .map(|&kb| CacheConfig::direct_mapped(kb * 1024))
        .collect()
}

/// The Section 4.2.2 D-cache sweep over a materialized stream.
/// Sharing misses survive every size — which is why the paper says
/// larger data caches can only moderately help the OS.
pub fn dcache_sweep(dstream: &[DStreamItem], num_cpus: usize) -> Vec<DResimPoint> {
    dcache_configs()
        .into_iter()
        .map(|c| resim_dcache(dstream, num_cpus, c))
        .collect()
}

#[cfg(test)]
mod dtests {
    use super::*;

    fn d(cpu: u8, block: u64, write: bool, os: bool) -> DStreamItem {
        DStreamItem {
            cpu,
            block,
            write,
            os,
        }
    }

    #[test]
    fn sharing_misses_survive_any_cache_size() {
        // Two CPUs ping-pong writes to one block: every re-access after
        // the other's write is a sharing miss, at any cache size.
        let mut stream = Vec::new();
        for i in 0..50 {
            stream.push(d((i % 2) as u8, 7, true, true));
        }
        for kb in [256u64, 4096] {
            let p = resim_dcache(&stream, 2, CacheConfig::direct_mapped(kb * 1024));
            assert_eq!(p.os_misses, 50, "every access misses at {kb}KB");
            assert_eq!(
                p.os_sharing_misses, 48,
                "all but the two cold misses are sharing at {kb}KB"
            );
        }
    }

    #[test]
    fn displacement_misses_vanish_with_size() {
        // One CPU alternates two conflicting blocks (256KB DM: 16384
        // sets; blocks 0 and 16384 conflict).
        let mut stream = Vec::new();
        for i in 0..40 {
            stream.push(d(0, if i % 2 == 0 { 0 } else { 16384 }, false, true));
        }
        let small = resim_dcache(&stream, 1, CacheConfig::direct_mapped(256 * 1024));
        let big = resim_dcache(&stream, 1, CacheConfig::direct_mapped(1024 * 1024));
        assert_eq!(small.os_misses, 40);
        assert_eq!(big.os_misses, 2, "conflicts disappear, cold remains");
        assert_eq!(big.os_sharing_misses, 0);
    }

    #[test]
    fn dcache_sweep_is_monotone_and_sharing_floored() {
        let mut stream = Vec::new();
        // Mix: ping-pong sharing + a conflict stream.
        for i in 0..30u64 {
            stream.push(d((i % 2) as u8, 5, true, true));
            stream.push(d(0, 100 + (i % 2) * 16384, false, true));
        }
        let points = dcache_sweep(&stream, 2);
        for w in points.windows(2) {
            assert!(w[1].os_misses <= w[0].os_misses);
        }
        let last = points.last().unwrap();
        assert!(
            last.os_sharing_misses > 0,
            "sharing floor survives at 4MB: {last:?}"
        );
    }
}
