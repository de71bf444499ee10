//! DMA-list commands (`mfc_getl` / `mfc_putl`).

use crate::command::{DmaCommand, DmaError, DmaKind, EffectiveAddr, LsAddr};
use crate::tag::TagId;
use crate::{LOCAL_STORE_BYTES, MAX_LIST_ELEMENTS};

/// One element of a DMA list: a transfer size and an effective-address
/// offset. The Local Store side advances contiguously from the command's
/// base, exactly as the hardware packs list transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListElement {
    /// Effective-address offset of this element (relative to the list
    /// command's base address).
    pub ea_offset: u64,
    /// Element size; same validity rules as a plain DMA command.
    pub bytes: u32,
}

/// A DMA-list command: one MFC command that performs up to 2048 transfers.
///
/// The MFC pays the command startup once, fetches the 8-byte list elements
/// from Local Store, and streams the elements back-to-back. That
/// amortization is why the paper's DMA-list curves are flat across element
/// sizes while DMA-elem collapses below 1024 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaListCommand {
    kind: DmaKind,
    ls: LsAddr,
    ea_base: EffectiveAddr,
    elements: Vec<ListElement>,
    tag: TagId,
    fence: bool,
}

impl DmaListCommand {
    /// Validates and creates a list command.
    ///
    /// # Errors
    ///
    /// Returns [`DmaError::BadListLength`] for an empty or oversized list,
    /// or the first per-element validity error (each element obeys the
    /// same size/alignment rules as a [`DmaCommand`], checked against the
    /// contiguously advancing Local Store cursor).
    pub fn new(
        kind: DmaKind,
        ls: LsAddr,
        ea_base: EffectiveAddr,
        elements: Vec<ListElement>,
        tag: TagId,
    ) -> Result<DmaListCommand, DmaError> {
        if elements.is_empty() || elements.len() > MAX_LIST_ELEMENTS {
            return Err(DmaError::BadListLength(elements.len()));
        }
        let mut ls_cursor = u64::from(ls.0);
        for el in &elements {
            let ea = ea_base.advanced(el.ea_offset);
            DmaCommand::validate(
                LsAddr(u32::try_from(ls_cursor).map_err(|_| DmaError::LocalStoreOverrun)?),
                &ea,
                el.bytes,
            )?;
            ls_cursor += u64::from(el.bytes);
            if ls_cursor > u64::from(LOCAL_STORE_BYTES) {
                return Err(DmaError::LocalStoreOverrun);
            }
        }
        Ok(DmaListCommand {
            kind,
            ls,
            ea_base,
            elements,
            tag,
            fence: false,
        })
    }

    /// Creates a list command whose elements the caller has already
    /// proven valid, without checking them again (see
    /// [`DmaCommand::new_unchecked`]). **Release builds accept invalid
    /// elements**; only debug builds run [`DmaListCommand::new`]'s checks
    /// and panic on a violation. Every other caller should use
    /// [`DmaListCommand::new`].
    #[doc(hidden)]
    #[inline]
    pub fn new_unchecked(
        kind: DmaKind,
        ls: LsAddr,
        ea_base: EffectiveAddr,
        elements: Vec<ListElement>,
        tag: TagId,
    ) -> DmaListCommand {
        debug_assert_eq!(
            DmaListCommand::new(kind, ls, ea_base, elements.clone(), tag).map(drop),
            Ok(()),
            "DmaListCommand::new_unchecked on invalid elements"
        );
        DmaListCommand {
            kind,
            ls,
            ea_base,
            elements,
            tag,
            fence: false,
        }
    }

    /// Marks this list command fenced (`mfc_getlf`/`mfc_putlf`): it will
    /// not begin until every earlier command in the same tag group has
    /// completed.
    pub fn with_fence(mut self) -> DmaListCommand {
        self.fence = true;
        self
    }

    /// Whether this command is fenced against its tag group.
    #[inline]
    pub fn fence(&self) -> bool {
        self.fence
    }

    /// Builds a list of `count` equal-sized elements covering a contiguous
    /// effective-address range — the shape every paper experiment uses.
    ///
    /// Validates in O(1) with exactly [`DmaListCommand::new`]'s result:
    /// every element has element 0's size, and its Local Store and EA
    /// offsets advance by whole elements, so they stay congruent to
    /// element 0's modulo the alignment. Element 0 therefore decides size
    /// and alignment for all, and only the last element's ends remain to
    /// check.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DmaListCommand::new`].
    pub fn contiguous(
        kind: DmaKind,
        ls: LsAddr,
        ea_base: EffectiveAddr,
        element_bytes: u32,
        count: usize,
        tag: TagId,
    ) -> Result<DmaListCommand, DmaError> {
        if count == 0 || count > MAX_LIST_ELEMENTS {
            return Err(DmaError::BadListLength(count));
        }
        DmaCommand::validate(ls, &ea_base, element_bytes)?;
        let span = count as u64 * u64::from(element_bytes);
        let ea_end = match ea_base {
            EffectiveAddr::LocalStore { offset, .. } => u64::from(offset) + span,
            EffectiveAddr::Memory { .. } => 0,
        };
        if (u64::from(ls.0) + span).max(ea_end) > u64::from(LOCAL_STORE_BYTES) {
            return Err(DmaError::LocalStoreOverrun);
        }
        let elements = (0..count)
            .map(|i| ListElement {
                ea_offset: i as u64 * u64::from(element_bytes),
                bytes: element_bytes,
            })
            .collect();
        Ok(DmaListCommand {
            kind,
            ls,
            ea_base,
            elements,
            tag,
            fence: false,
        })
    }

    /// The transfer direction.
    #[inline]
    pub fn kind(&self) -> DmaKind {
        self.kind
    }

    /// Base Local Store address; elements pack contiguously from here.
    #[inline]
    pub fn ls(&self) -> LsAddr {
        self.ls
    }

    /// Base effective address; element offsets are relative to this.
    #[inline]
    pub fn ea_base(&self) -> EffectiveAddr {
        self.ea_base
    }

    /// The list elements, in transfer order.
    #[inline]
    pub fn elements(&self) -> &[ListElement] {
        &self.elements
    }

    /// Total payload bytes across all elements.
    pub fn total_bytes(&self) -> u64 {
        self.elements.iter().map(|e| u64::from(e.bytes)).sum()
    }

    /// The tag group this command completes under.
    #[inline]
    pub fn tag(&self) -> TagId {
        self.tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim_mem::RegionId;

    fn mem() -> EffectiveAddr {
        EffectiveAddr::Memory {
            region: RegionId(0),
            offset: 0,
        }
    }

    fn tag() -> TagId {
        TagId::new(1).unwrap()
    }

    #[test]
    fn contiguous_list_builds_and_sums() {
        let l = DmaListCommand::contiguous(DmaKind::Get, LsAddr(0), mem(), 512, 8, tag()).unwrap();
        assert_eq!(l.elements().len(), 8);
        assert_eq!(l.total_bytes(), 4096);
        assert_eq!(l.elements()[3].ea_offset, 1536);
    }

    #[test]
    fn empty_and_oversized_lists_rejected() {
        assert_eq!(
            DmaListCommand::contiguous(DmaKind::Get, LsAddr(0), mem(), 128, 0, tag()),
            Err(DmaError::BadListLength(0))
        );
        assert_eq!(
            DmaListCommand::contiguous(DmaKind::Get, LsAddr(0), mem(), 16, 2049, tag()),
            Err(DmaError::BadListLength(2049))
        );
    }

    #[test]
    fn element_validity_checked_against_running_ls_cursor() {
        // Second element lands at LS offset 8 with 128-byte size: misaligned.
        let elements = vec![
            ListElement {
                ea_offset: 0,
                bytes: 8,
            },
            ListElement {
                ea_offset: 16,
                bytes: 128,
            },
        ];
        assert!(matches!(
            DmaListCommand::new(DmaKind::Put, LsAddr(0), mem(), elements, tag()),
            Err(DmaError::Misaligned { .. })
        ));
    }

    #[test]
    fn list_must_fit_local_store() {
        // 2048 elements * 16 KB = 32 MB >> 256 KB.
        assert!(matches!(
            DmaListCommand::contiguous(DmaKind::Get, LsAddr(0), mem(), 16384, 32, tag()),
            Err(DmaError::LocalStoreOverrun)
        ));
    }
}
