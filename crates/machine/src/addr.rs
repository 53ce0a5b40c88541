//! Address and identifier newtypes shared across the simulator.
//!
//! The simulated machine is physically addressed: caches, the bus and the
//! monitor all see [`PAddr`]. User programs live in a per-process virtual
//! space addressed by [`VAddr`] and translated through the per-CPU TLB.
//! Granularities mirror the SGI 4D/340: 4 KB pages and 16-byte cache
//! blocks.

use std::fmt;

/// Size of a virtual-memory page in bytes (4 KB, as on the MIPS R3000).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Size of a cache block in bytes (16 B on the 4D/340).
pub const BLOCK_SIZE: u64 = 16;
/// log2 of [`BLOCK_SIZE`].
pub const BLOCK_SHIFT: u32 = 4;
/// Number of 4-byte instructions per cache block.
pub const INSTRS_PER_BLOCK: u64 = BLOCK_SIZE / 4;

/// A physical byte address.
///
/// # Examples
///
/// ```
/// use oscar_machine::addr::{PAddr, BLOCK_SIZE};
/// let a = PAddr::new(0x1234);
/// assert_eq!(a.block().base().raw(), 0x1230);
/// assert_eq!(a.offset_in_block(), 0x4);
/// assert_eq!(a.page().base(), PAddr::new(0x1000));
/// let _ = BLOCK_SIZE;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(u64);

impl PAddr {
    /// Creates a physical address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        PAddr(raw)
    }

    /// The raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache block containing this address.
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }

    /// The physical page containing this address.
    pub const fn page(self) -> Ppn {
        Ppn((self.0 >> PAGE_SHIFT) as u32)
    }

    /// Byte offset within the containing cache block.
    pub const fn offset_in_block(self) -> u64 {
        self.0 & (BLOCK_SIZE - 1)
    }

    /// Byte offset within the containing page.
    pub const fn offset_in_page(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// This address advanced by `bytes`.
    pub const fn add(self, bytes: u64) -> Self {
        PAddr(self.0 + bytes)
    }

    /// Whether the raw byte address is odd (used by the escape-reference
    /// encoding: escapes are always reads of odd addresses).
    pub const fn is_odd(self) -> bool {
        self.0 & 1 == 1
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{:#010x}", self.0)
    }
}

impl fmt::LowerHex for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A virtual byte address within some process address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(u64);

impl VAddr {
    /// Creates a virtual address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        VAddr(raw)
    }

    /// The raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The virtual page containing this address.
    pub const fn page(self) -> Vpn {
        Vpn((self.0 >> PAGE_SHIFT) as u32)
    }

    /// Byte offset within the containing page.
    pub const fn offset_in_page(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// This address advanced by `bytes`.
    pub const fn add(self, bytes: u64) -> Self {
        VAddr(self.0 + bytes)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:#010x}", self.0)
    }
}

/// A physical page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(pub u32);

impl Ppn {
    /// First byte address of this page.
    pub const fn base(self) -> PAddr {
        PAddr((self.0 as u64) << PAGE_SHIFT)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ppn{}", self.0)
    }
}

/// A virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u32);

impl Vpn {
    /// First byte address of this virtual page.
    pub const fn base(self) -> VAddr {
        VAddr((self.0 as u64) << PAGE_SHIFT)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn{}", self.0)
    }
}

/// A cache-block address (a physical address with the block offset
/// stripped; i.e. `paddr >> 4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// First byte address of this block.
    pub const fn base(self) -> PAddr {
        PAddr(self.0 << BLOCK_SHIFT)
    }

    /// The physical page containing this block.
    pub const fn page(self) -> Ppn {
        Ppn((self.0 >> (PAGE_SHIFT - BLOCK_SHIFT)) as u32)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{:#x}", self.0)
    }
}

/// A CPU identifier (0-based; the default 4D/340 machine has four CPUs).
/// `repr(transparent)`: a column of CPU IDs is byte-for-byte a `u8`
/// column, which the [`crate::kindscan`] scan kernel relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct CpuId(pub u8);

impl CpuId {
    /// The index of this CPU as a `usize`, for table lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paddr_block_and_page_extraction() {
        let a = PAddr::new(0x0001_2345);
        assert_eq!(a.block(), BlockAddr(0x1234));
        assert_eq!(a.block().base(), PAddr::new(0x0001_2340));
        assert_eq!(a.page(), Ppn(0x12));
        assert_eq!(a.offset_in_block(), 5);
        assert_eq!(a.offset_in_page(), 0x345);
    }

    #[test]
    fn vaddr_page_extraction() {
        let v = VAddr::new(0x0040_1fff);
        assert_eq!(v.page(), Vpn(0x401));
        assert_eq!(v.offset_in_page(), 0xfff);
        assert_eq!(v.page().base(), VAddr::new(0x0040_1000));
    }

    #[test]
    fn block_page_roundtrip() {
        let p = Ppn(77);
        let b = p.base().block();
        assert_eq!(b.page(), p);
        // All blocks of the page map back to the page.
        let blocks_per_page = PAGE_SIZE / BLOCK_SIZE;
        for i in 0..blocks_per_page {
            let blk = BlockAddr(b.0 + i);
            assert_eq!(blk.page(), p);
        }
    }

    #[test]
    fn oddness() {
        assert!(PAddr::new(3).is_odd());
        assert!(!PAddr::new(4).is_odd());
    }

    #[test]
    fn addition() {
        assert_eq!(PAddr::new(10).add(6), PAddr::new(16));
        assert_eq!(VAddr::new(10).add(6), VAddr::new(16));
    }

    #[test]
    fn display_forms() {
        assert_eq!(PAddr::new(0x10).to_string(), "p0x00000010");
        assert_eq!(VAddr::new(0x10).to_string(), "v0x00000010");
        assert_eq!(CpuId(2).to_string(), "cpu2");
        assert_eq!(Ppn(3).to_string(), "ppn3");
        assert_eq!(Vpn(4).to_string(), "vpn4");
        assert!(!format!("{:?}", BlockAddr(1)).is_empty());
    }
}
