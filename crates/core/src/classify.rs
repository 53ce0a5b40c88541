//! Architectural miss classification (the paper's Table 2) from the
//! miss trace alone.
//!
//! Because the measured machine's caches are direct-mapped, the sequence
//! of fills observed on the bus fully determines each cache's contents:
//! a mirror replays the fills and can therefore tell, for every miss,
//! whether the block was never seen (*Cold*), displaced by an
//! intervening OS or application fill (*Dispos*/*Dispap*), invalidated
//! by coherence (*Sharing*), or dropped by an explicit I-cache flush
//! (*Inval*).

use oscar_machine::addr::{BlockAddr, Ppn};

/// The architectural classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchClass {
    /// First access by this processor to the block.
    Cold,
    /// The block was displaced by an intervening OS reference.
    /// `same_epoch` is the *Dispossame* refinement: the application was
    /// not invoked on this CPU between the displacement and the re-miss.
    DispOs {
        /// No application ran in between.
        same_epoch: bool,
    },
    /// The block was displaced by an intervening application reference.
    DispAp,
    /// The block was invalidated by coherence activity (sharing or
    /// migration).
    Sharing,
    /// The block was dropped by an explicit I-cache invalidation
    /// (code-page reallocation).
    Inval,
}

/// How a block last left the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loss {
    DispOs {
        /// The CPU's application epoch at displacement time.
        epoch: u64,
    },
    DispAp,
    Invalidated,
    Flushed,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: BlockAddr,
}

/// Entries per loss-table page (a 16 KiB allocation).
const LOSS_PAGE: usize = 1 << 12;

/// A lazily-paged dense map from block number to loss cause.
///
/// The simulated physical address space is small and block numbers are
/// dense, so the per-miss probe and update become two array index
/// operations instead of a hash remove + insert — this map sits on the
/// hottest classification path. Pages allocate on first write, keeping
/// resident size proportional to the address range actually cached.
///
/// Encoding: `0` = no entry, `1` = DispAp, `2` = Invalidated,
/// `3` = Flushed, `n >= 4` = DispOs at epoch `n - 4`.
#[derive(Debug, Default)]
struct LossTable {
    pages: Vec<Option<Box<[u32]>>>,
}

const LOSS_NONE: u32 = 0;
const LOSS_DISP_AP: u32 = 1;
const LOSS_INVALIDATED: u32 = 2;
const LOSS_FLUSHED: u32 = 3;
const LOSS_EPOCH_BASE: u32 = 4;

impl LossTable {
    fn encode(loss: Loss) -> u32 {
        match loss {
            Loss::DispAp => LOSS_DISP_AP,
            Loss::Invalidated => LOSS_INVALIDATED,
            Loss::Flushed => LOSS_FLUSHED,
            Loss::DispOs { epoch } => {
                // Epochs count application dispatches per CPU; u32 holds
                // billions of them, far beyond any simulated window.
                let e = u32::try_from(epoch).expect("application epoch overflows loss encoding");
                assert!(e <= u32::MAX - LOSS_EPOCH_BASE);
                LOSS_EPOCH_BASE + e
            }
        }
    }

    fn decode(raw: u32) -> Option<Loss> {
        match raw {
            LOSS_NONE => None,
            LOSS_DISP_AP => Some(Loss::DispAp),
            LOSS_INVALIDATED => Some(Loss::Invalidated),
            LOSS_FLUSHED => Some(Loss::Flushed),
            e => Some(Loss::DispOs {
                epoch: u64::from(e - LOSS_EPOCH_BASE),
            }),
        }
    }

    fn insert(&mut self, block: BlockAddr, loss: Loss) {
        let idx = block.0 as usize;
        let (p, o) = (idx / LOSS_PAGE, idx % LOSS_PAGE);
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let page =
            self.pages[p].get_or_insert_with(|| vec![LOSS_NONE; LOSS_PAGE].into_boxed_slice());
        page[o] = Self::encode(loss);
    }

    fn remove(&mut self, block: BlockAddr) -> Option<Loss> {
        let idx = block.0 as usize;
        let (p, o) = (idx / LOSS_PAGE, idx % LOSS_PAGE);
        let page = self.pages.get_mut(p)?.as_mut()?;
        let raw = page[o];
        if raw != LOSS_NONE {
            page[o] = LOSS_NONE;
        }
        Self::decode(raw)
    }
}

/// A growable dense bitset over block numbers. The simulated physical
/// address space is small (tens of megabytes), so one bit per block is
/// far cheaper than hashing on the per-record classification and
/// resimulation paths.
#[derive(Debug, Default)]
pub(crate) struct BlockSet {
    words: Vec<u64>,
}

impl BlockSet {
    /// Sets the bit for `idx`, returning whether it was already set.
    pub(crate) fn set(&mut self, idx: u64) -> bool {
        let (w, b) = ((idx / 64) as usize, idx % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let old = self.words[w] >> b & 1 == 1;
        self.words[w] |= 1 << b;
        old
    }

    /// Clears the bit for `idx`, returning whether it was set.
    pub(crate) fn clear(&mut self, idx: u64) -> bool {
        let (w, b) = ((idx / 64) as usize, idx % 64);
        match self.words.get_mut(w) {
            Some(word) => {
                let old = *word >> b & 1 == 1;
                *word &= !(1 << b);
                old
            }
            None => false,
        }
    }
}

/// A direct-mapped cache mirror reconstructing one cache's contents
/// from its fill stream.
#[derive(Debug)]
pub struct Mirror {
    sets: u64,
    /// `sets - 1` when `sets` is a power of two (always, for the
    /// measured geometries): set indexing by mask, not hardware divide.
    set_mask: u64,
    lines: Vec<Option<Line>>,
    loss: LossTable,
    seen: BlockSet,
}

impl Mirror {
    /// A mirror for a direct-mapped cache of `size_bytes` with 16-byte
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate.
    pub fn new(size_bytes: u64) -> Self {
        let sets = size_bytes / 16;
        assert!(sets > 0, "cache must have at least one set");
        Mirror {
            sets,
            set_mask: if sets.is_power_of_two() {
                sets - 1
            } else {
                u64::MAX
            },
            lines: vec![None; sets as usize],
            loss: LossTable::default(),
            seen: BlockSet::default(),
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        if self.set_mask != u64::MAX {
            (block.0 & self.set_mask) as usize
        } else {
            (block.0 % self.sets) as usize
        }
    }

    /// Whether the mirror currently holds `block`.
    pub fn resident(&self, block: BlockAddr) -> bool {
        self.lines[self.set_of(block)].is_some_and(|l| l.block == block)
    }

    /// Classifies a miss on `block` and replays its fill.
    ///
    /// `fill_is_os` tags the displacing fill for later classification of
    /// the victim's re-miss; `epoch` is the CPU's application epoch.
    pub fn classify_fill(&mut self, block: BlockAddr, fill_is_os: bool, epoch: u64) -> ArchClass {
        let class = if !self.seen.set(block.0) {
            // Never seen, so `loss` cannot hold an entry either (loss
            // records are only written for blocks that were resident,
            // which requires a prior fill): no probe needed.
            ArchClass::Cold
        } else {
            match self.loss.remove(block) {
                Some(Loss::DispOs { epoch: e }) => ArchClass::DispOs {
                    same_epoch: e == epoch,
                },
                Some(Loss::DispAp) => ArchClass::DispAp,
                Some(Loss::Invalidated) => ArchClass::Sharing,
                Some(Loss::Flushed) => ArchClass::Inval,
                // Re-miss on a block the mirror thinks is resident: the
                // only direct-mapped possibility is that it was lost to
                // something we saw; treat defensively as displacement.
                None => {
                    if fill_is_os {
                        ArchClass::DispOs { same_epoch: false }
                    } else {
                        ArchClass::DispAp
                    }
                }
            }
        };
        // Fill, recording the victim's loss cause.
        let set = self.set_of(block);
        if let Some(victim) = self.lines[set] {
            if victim.block != block {
                let cause = if fill_is_os {
                    Loss::DispOs { epoch }
                } else {
                    Loss::DispAp
                };
                self.loss.insert(victim.block, cause);
            }
        }
        self.lines[set] = Some(Line { block });
        class
    }

    /// Invalidates `block` after coherence activity by another CPU.
    pub fn invalidate(&mut self, block: BlockAddr) {
        let set = self.set_of(block);
        if self.lines[set].is_some_and(|l| l.block == block) {
            self.lines[set] = None;
            self.loss.insert(block, Loss::Invalidated);
        }
    }

    /// Invalidates every resident block of `page` (an explicit I-cache
    /// flush). Returns the number of lines dropped.
    pub fn flush_page(&mut self, page: Ppn) -> usize {
        let mut dropped = 0;
        for set in 0..self.lines.len() {
            if let Some(l) = self.lines[set] {
                if l.block.page() == page {
                    self.lines[set] = None;
                    self.loss.insert(l.block, Loss::Flushed);
                    dropped += 1;
                }
            }
        }
        dropped
    }
}

/// Per-class miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Cold misses.
    pub cold: u64,
    /// Displaced by OS references.
    pub disp_os: u64,
    /// The *Dispossame* subset of `disp_os`.
    pub disp_os_same: u64,
    /// Displaced by application references.
    pub disp_ap: u64,
    /// Coherence (sharing/migration) misses, including upgrades.
    pub sharing: u64,
    /// I-cache invalidation misses.
    pub inval: u64,
}

impl ClassCounts {
    /// Records one classified miss.
    pub fn record(&mut self, class: ArchClass) {
        match class {
            ArchClass::Cold => self.cold += 1,
            ArchClass::DispOs { same_epoch } => {
                self.disp_os += 1;
                if same_epoch {
                    self.disp_os_same += 1;
                }
            }
            ArchClass::DispAp => self.disp_ap += 1,
            ArchClass::Sharing => self.sharing += 1,
            ArchClass::Inval => self.inval += 1,
        }
    }

    /// Total misses.
    pub fn total(&self) -> u64 {
        self.cold + self.disp_os + self.disp_ap + self.sharing + self.inval
    }
}

/// Columnar kind-dispatch prescan for the analyzer's SoA hot loop:
/// one [`oscar_machine::kindscan`] SWAR/SIMD pass over a block's packed
/// kind column marks the write-back lanes, so the dispatch loop can
/// bulk-count them (a write-back carries no classification state) and
/// walk only the lanes that need the full access handler. Owns its
/// bitmap so steady-state scanning allocates nothing. The scalar
/// per-record dispatch (`StreamAnalyzer::push`) is the retained
/// differential oracle.
#[derive(Debug, Default)]
pub struct KindScan {
    /// Lane bitmap (64 records per word) of the write-back records in
    /// the last scanned block.
    pub writebacks: Vec<u64>,
}

impl KindScan {
    /// Scans one block's packed kind column
    /// ([`oscar_machine::monitor::RecordBlock::kind_codes`]).
    pub fn scan(&mut self, codes: &[u8]) {
        oscar_machine::kindscan::select_eq_any(
            codes,
            &[oscar_machine::BusKind::WriteBack.code()],
            &mut self.writebacks,
        );
    }

    /// Write-back records in the scanned block.
    pub fn writeback_count(&self) -> u64 {
        oscar_machine::kindscan::popcount(&self.writebacks)
    }
}

/// Instruction + data counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdCounts {
    /// Instruction misses.
    pub instr: ClassCounts,
    /// Data misses.
    pub data: ClassCounts,
}

impl IdCounts {
    /// Total misses.
    pub fn total(&self) -> u64 {
        self.instr.total() + self.data.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn cold_then_displacement_classification() {
        // 1 KB mirror: 64 sets. Blocks 0 and 64 conflict.
        let mut m = Mirror::new(1024);
        assert_eq!(m.classify_fill(b(0), true, 1), ArchClass::Cold);
        assert_eq!(m.classify_fill(b(64), false, 1), ArchClass::Cold);
        // Block 0 was displaced by an application fill.
        assert_eq!(m.classify_fill(b(0), true, 1), ArchClass::DispAp);
        // Block 64 was displaced by an OS fill in the same epoch.
        assert_eq!(
            m.classify_fill(b(64), true, 1),
            ArchClass::DispOs { same_epoch: true }
        );
        // And after the app runs (epoch changes) it's not Dispossame.
        assert_eq!(
            m.classify_fill(b(0), true, 2),
            ArchClass::DispOs { same_epoch: false }
        );
    }

    #[test]
    fn invalidation_classifies_as_sharing() {
        let mut m = Mirror::new(1024);
        m.classify_fill(b(5), true, 0);
        m.invalidate(b(5));
        assert!(!m.resident(b(5)));
        assert_eq!(m.classify_fill(b(5), true, 0), ArchClass::Sharing);
    }

    #[test]
    fn flush_classifies_as_inval() {
        let mut m = Mirror::new(64 * 1024);
        let page = Ppn(2);
        let base = page.base().block();
        for i in 0..4 {
            m.classify_fill(BlockAddr(base.0 + i), true, 0);
        }
        assert_eq!(m.flush_page(page), 4);
        assert_eq!(m.classify_fill(base, true, 0), ArchClass::Inval);
    }

    #[test]
    fn invalidate_absent_block_is_noop() {
        let mut m = Mirror::new(1024);
        m.invalidate(b(9));
        assert_eq!(m.classify_fill(b(9), false, 0), ArchClass::Cold);
    }

    #[test]
    fn class_counts_accumulate() {
        let mut c = ClassCounts::default();
        c.record(ArchClass::Cold);
        c.record(ArchClass::DispOs { same_epoch: true });
        c.record(ArchClass::DispOs { same_epoch: false });
        c.record(ArchClass::Sharing);
        assert_eq!(c.total(), 4);
        assert_eq!(c.disp_os, 2);
        assert_eq!(c.disp_os_same, 1);
    }
}
