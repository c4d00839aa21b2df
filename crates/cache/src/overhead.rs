//! Space-overhead model of §4.2.5 / Figure 12.
//!
//! The paper charges each cached *item* one list node: "the granularity of
//! cached items in LRU, BPLRU, and Req-block is a page, a block, and a
//! request block, and the corresponding node requires 12 Byte, 24 Byte, and
//! 32 Byte, respectively. Specially, the VBBMS adopts a virtual block, which
//! needs the same memory as a block." Policies report their live node count
//! through [`crate::WriteBuffer::node_count`]; multiplying by these
//! constants yields Figure 12's kilobyte numbers.

/// Bytes per page node (LRU).
pub const PAGE_NODE_BYTES: usize = 12;
/// Bytes per block / virtual-block node (BPLRU, VBBMS).
pub const BLOCK_NODE_BYTES: usize = 24;
/// Bytes per request-block node (Req-block).
pub const REQ_BLOCK_NODE_BYTES: usize = 32;

/// Space overhead in bytes for `nodes` nodes of `bytes_per_node`.
#[inline]
pub fn metadata_bytes(nodes: usize, bytes_per_node: usize) -> usize {
    nodes * bytes_per_node
}

/// Overhead as a fraction of the data-cache capacity (`capacity_pages` 4 KB
/// pages), as reported in the text of §4.2.5 ("an average of 0.41 % of total
/// cache space").
pub fn overhead_fraction(meta_bytes: usize, capacity_pages: usize) -> f64 {
    if capacity_pages == 0 {
        return 0.0;
    }
    meta_bytes as f64 / (capacity_pages as f64 * 4096.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_sizes_match_paper() {
        assert_eq!(PAGE_NODE_BYTES, 12);
        assert_eq!(BLOCK_NODE_BYTES, 24);
        assert_eq!(REQ_BLOCK_NODE_BYTES, 32);
    }

    #[test]
    fn fully_paged_lru_overhead_is_0_29_percent() {
        // A full page-granularity cache: one 12 B node per 4 KB page
        // = 12/4096 = 0.293 % — the paper's "LRU ... 0.29 %".
        let capacity = 4096; // 16 MB
        let bytes = metadata_bytes(capacity, PAGE_NODE_BYTES);
        let frac = overhead_fraction(bytes, capacity);
        assert!((frac - 12.0 / 4096.0).abs() < 1e-12);
        assert!((frac * 100.0 - 0.29).abs() < 0.01);
    }

    #[test]
    fn zero_capacity_fraction_is_zero() {
        assert_eq!(overhead_fraction(1000, 0), 0.0);
    }
}
