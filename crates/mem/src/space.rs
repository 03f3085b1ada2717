//! Address spaces.
//!
//! V groups processes into *teams* sharing an address space; a logical host
//! holds one or more address spaces (§2.1). For migration, what matters
//! about a space is its size, which pages are writable, and which writable
//! pages are dirty — the pre-copy algorithm (§3.1.2) repeatedly copies and
//! re-scans dirty pages. The model tracks exactly that, at the paper's 2 KB
//! hardware page granularity.

use vsim::calib::PAGE_BYTES;

use crate::bitset::BitSet;

/// Identifier of an address space within a logical host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpaceId(pub u32);

/// The role of a segment in the address-space layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Program text; read-only, never dirtied.
    Code,
    /// Initialized data that the program happens never to write
    /// (the ".25 megabytes of initialized (unmodified) data" of §3.1.2).
    InitData,
    /// Writable data: heap, BSS, "active data".
    Heap,
    /// Stack.
    Stack,
}

impl SegmentKind {
    /// True if pages of this kind can be dirtied.
    pub fn writable(self) -> bool {
        matches!(self, SegmentKind::Heap | SegmentKind::Stack)
    }
}

/// A contiguous page range of one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Role of the range.
    pub kind: SegmentKind,
    /// First page index.
    pub first_page: u32,
    /// Number of pages.
    pub pages: u32,
}

impl Segment {
    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.pages as u64 * PAGE_BYTES
    }

    /// One-past-last page index.
    pub fn end_page(&self) -> u32 {
        self.first_page + self.pages
    }
}

/// Declarative layout used to build an [`AddressSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceLayout {
    /// Code bytes (rounded up to whole pages).
    pub code_bytes: u64,
    /// Initialized-but-unwritten data bytes.
    pub init_data_bytes: u64,
    /// Writable heap/active-data bytes.
    pub heap_bytes: u64,
    /// Stack bytes.
    pub stack_bytes: u64,
}

impl SpaceLayout {
    /// The worked example of §3.1.2: 1 MB code, 0.25 MB initialized data,
    /// 0.75 MB active data.
    pub fn section_3_1_2_example() -> Self {
        const MB: u64 = 1024 * 1024;
        SpaceLayout {
            code_bytes: MB,
            init_data_bytes: MB / 4,
            heap_bytes: 3 * MB / 4 - 16 * PAGE_BYTES,
            stack_bytes: 16 * PAGE_BYTES,
        }
    }

    /// A small layout for tests: one page of everything.
    pub fn tiny() -> Self {
        SpaceLayout {
            code_bytes: PAGE_BYTES,
            init_data_bytes: PAGE_BYTES,
            heap_bytes: 4 * PAGE_BYTES,
            stack_bytes: PAGE_BYTES,
        }
    }

    /// Total bytes after page rounding.
    pub fn total_bytes(&self) -> u64 {
        [
            self.code_bytes,
            self.init_data_bytes,
            self.heap_bytes,
            self.stack_bytes,
        ]
        .iter()
        .map(|b| b.div_ceil(PAGE_BYTES) * PAGE_BYTES)
        .sum()
    }
}

/// An address space: segments plus per-page dirty bits.
///
/// # Examples
///
/// ```
/// use vmem::{AddressSpace, SpaceId, SpaceLayout};
///
/// let mut space = AddressSpace::new(SpaceId(0), SpaceLayout::tiny());
/// let heap = space.writable_pages()[0];
/// space.write_page(heap);
/// assert_eq!(space.dirty_pages(), 1);
/// assert_eq!(space.take_dirty(), vec![heap]);
/// assert_eq!(space.dirty_pages(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    id: SpaceId,
    segments: Vec<Segment>,
    dirty: BitSet,
    ever_written: BitSet,
    total_pages: u32,
    lifetime_writes: u64,
}

impl AddressSpace {
    /// Builds a space from a layout. Segment order is code, initialized
    /// data, heap, stack; zero-sized segments are omitted.
    ///
    /// # Panics
    ///
    /// Panics if a segment spans more than `u32::MAX` pages.
    #[allow(clippy::expect_used)]
    pub fn new(id: SpaceId, layout: SpaceLayout) -> Self {
        let mut segments = Vec::new();
        let mut next_page: u32 = 0;
        let mut push = |kind: SegmentKind, bytes: u64, next_page: &mut u32| {
            let pages = u32::try_from(bytes.div_ceil(PAGE_BYTES)).expect("segment too large");
            if pages > 0 {
                segments.push(Segment {
                    kind,
                    first_page: *next_page,
                    pages,
                });
                *next_page += pages;
            }
        };
        push(SegmentKind::Code, layout.code_bytes, &mut next_page);
        push(
            SegmentKind::InitData,
            layout.init_data_bytes,
            &mut next_page,
        );
        push(SegmentKind::Heap, layout.heap_bytes, &mut next_page);
        push(SegmentKind::Stack, layout.stack_bytes, &mut next_page);
        AddressSpace {
            id,
            segments,
            dirty: BitSet::new(next_page as usize),
            ever_written: BitSet::new(next_page as usize),
            total_pages: next_page,
            lifetime_writes: 0,
        }
    }

    /// The space's identifier.
    pub fn id(&self) -> SpaceId {
        self.id
    }

    /// The segment table.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total size in pages.
    pub fn total_pages(&self) -> u32 {
        self.total_pages
    }

    /// Total size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages as u64 * PAGE_BYTES
    }

    /// The segment containing `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[allow(clippy::expect_used)]
    pub fn segment_of(&self, page: u32) -> &Segment {
        self.segments
            .iter()
            .find(|s| page >= s.first_page && page < s.end_page())
            .expect("page out of range")
    }

    /// Indices of all writable pages, ascending.
    pub fn writable_pages(&self) -> Vec<u32> {
        self.segments
            .iter()
            .filter(|s| s.kind.writable())
            .flat_map(|s| s.first_page..s.end_page())
            .collect()
    }

    /// Number of writable pages.
    pub fn writable_page_count(&self) -> u32 {
        self.segments
            .iter()
            .filter(|s| s.kind.writable())
            .map(|s| s.pages)
            .sum()
    }

    /// Records a store to `page`, setting its dirty bit.
    ///
    /// Returns `true` if the page was clean before (a *new* dirty page).
    ///
    /// # Panics
    ///
    /// Panics if the page is not writable — the MMU would fault.
    pub fn write_page(&mut self, page: u32) -> bool {
        assert!(
            self.segment_of(page).kind.writable(),
            "write to read-only page {page}"
        );
        self.lifetime_writes += 1;
        self.ever_written.set(page as usize);
        self.dirty.set(page as usize)
    }

    /// Number of dirty pages.
    pub fn dirty_pages(&self) -> u32 {
        self.dirty.count() as u32
    }

    /// Dirty bytes.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_pages() as u64 * PAGE_BYTES
    }

    /// Returns the dirty page list and clears all dirty bits — the
    /// "copy modified pages and reset dirty bits" step of pre-copy.
    pub fn take_dirty(&mut self) -> Vec<u32> {
        self.dirty.take().into_iter().map(|p| p as u32).collect()
    }

    /// Clears all dirty bits without reporting them (initial full copy).
    pub fn clear_dirty(&mut self) {
        self.dirty.clear_all();
    }

    /// Total stores recorded over the space's lifetime.
    pub fn lifetime_writes(&self) -> u64 {
        self.lifetime_writes
    }

    /// Pages written at least once since the space was created — the set
    /// the §3.2 virtual-memory migration variant must flush to the file
    /// server (clean pages reload from the program image instead).
    pub fn ever_written_pages(&self) -> Vec<u32> {
        self.ever_written.iter().map(|p| p as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_builds_expected_segments() {
        let s = AddressSpace::new(SpaceId(1), SpaceLayout::section_3_1_2_example());
        let kinds: Vec<SegmentKind> = s.segments().iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SegmentKind::Code,
                SegmentKind::InitData,
                SegmentKind::Heap,
                SegmentKind::Stack
            ]
        );
        // 2 MB total at 2 KB pages = 1024 pages.
        assert_eq!(s.total_pages(), 1024);
        assert_eq!(s.total_bytes(), 2 * 1024 * 1024);
        // 0.75 MB of it is writable.
        assert_eq!(s.writable_page_count() as u64 * PAGE_BYTES, 768 * 1024);
    }

    #[test]
    fn zero_segments_are_omitted() {
        let s = AddressSpace::new(
            SpaceId(0),
            SpaceLayout {
                code_bytes: PAGE_BYTES,
                init_data_bytes: 0,
                heap_bytes: PAGE_BYTES,
                stack_bytes: 0,
            },
        );
        assert_eq!(s.segments().len(), 2);
    }

    #[test]
    fn sub_page_sizes_round_up() {
        let s = AddressSpace::new(
            SpaceId(0),
            SpaceLayout {
                code_bytes: 1,
                init_data_bytes: 0,
                heap_bytes: PAGE_BYTES + 1,
                stack_bytes: 0,
            },
        );
        assert_eq!(s.total_pages(), 3);
    }

    #[test]
    fn writes_set_dirty_once() {
        let mut s = AddressSpace::new(SpaceId(0), SpaceLayout::tiny());
        let pages = s.writable_pages();
        assert!(s.write_page(pages[0]));
        assert!(!s.write_page(pages[0]), "re-dirtying is not new");
        assert!(s.write_page(pages[1]));
        assert_eq!(s.dirty_pages(), 2);
        assert_eq!(s.dirty_bytes(), 2 * PAGE_BYTES);
        assert_eq!(s.lifetime_writes(), 3);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn write_to_code_faults() {
        let mut s = AddressSpace::new(SpaceId(0), SpaceLayout::tiny());
        s.write_page(0); // Page 0 is code.
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn write_to_init_data_faults() {
        let mut s = AddressSpace::new(SpaceId(0), SpaceLayout::tiny());
        s.write_page(1); // Page 1 is InitData.
    }

    #[test]
    fn take_dirty_returns_and_clears() {
        let mut s = AddressSpace::new(SpaceId(0), SpaceLayout::tiny());
        let pages = s.writable_pages();
        s.write_page(pages[2]);
        s.write_page(pages[0]);
        assert_eq!(s.take_dirty(), vec![pages[0], pages[2]]);
        assert_eq!(s.dirty_pages(), 0);
        assert!(s.take_dirty().is_empty());
    }

    #[test]
    fn segment_of_finds_owner() {
        let s = AddressSpace::new(SpaceId(0), SpaceLayout::tiny());
        assert_eq!(s.segment_of(0).kind, SegmentKind::Code);
        assert_eq!(s.segment_of(2).kind, SegmentKind::Heap);
        let last = s.total_pages() - 1;
        assert_eq!(s.segment_of(last).kind, SegmentKind::Stack);
    }

    #[test]
    fn ever_written_survives_dirty_clear() {
        let mut s = AddressSpace::new(SpaceId(0), SpaceLayout::tiny());
        let pages = s.writable_pages();
        s.write_page(pages[0]);
        s.write_page(pages[1]);
        s.clear_dirty();
        assert_eq!(s.dirty_pages(), 0);
        assert_eq!(s.ever_written_pages(), vec![pages[0], pages[1]]);
    }

    #[test]
    fn layout_total_matches_space_total() {
        for layout in [SpaceLayout::tiny(), SpaceLayout::section_3_1_2_example()] {
            let s = AddressSpace::new(SpaceId(0), layout);
            assert_eq!(s.total_bytes(), layout.total_bytes());
        }
    }
}
