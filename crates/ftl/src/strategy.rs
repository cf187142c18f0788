//! Miss-path fetch accounting for the three search strategies (paper
//! §III-C and the §IV-D case study).
//!
//! On an L2P cache miss the device must fetch mapping entries from flash.
//! How many fetches depends on how the aggregation level of the address is
//! discovered:
//!
//! * **Bitmap** — the in-SRAM [`MapBitmap`](crate::MapBitmap) already knows
//!   the level: always one fetch.
//! * **Multiple** — probe the table zone-first: fetch the LZA entry and
//!   check its map bits; on failure fetch the LCA entry; then the LPA
//!   entry. One, two or three fetches.
//! * **Pinned** — aggregated entries are pinned in the cache when
//!   generated, so a miss can only be page-granularity: one fetch.

use conzone_types::{MapGranularity, SearchStrategy};

/// Number of mapping-table flash fetches an L2P miss costs, given the
/// actual aggregation level of the missed address.
///
/// ```
/// use conzone_ftl::mapping_fetches;
/// use conzone_types::{MapGranularity, SearchStrategy};
///
/// assert_eq!(mapping_fetches(SearchStrategy::Multiple, MapGranularity::Page), 3);
/// assert_eq!(mapping_fetches(SearchStrategy::Bitmap, MapGranularity::Page), 1);
/// ```
pub fn mapping_fetches(strategy: SearchStrategy, actual: MapGranularity) -> u32 {
    match strategy {
        SearchStrategy::Bitmap | SearchStrategy::Pinned => 1,
        SearchStrategy::Multiple => match actual {
            MapGranularity::Zone => 1,
            MapGranularity::Chunk => 2,
            MapGranularity::Page => 3,
        },
    }
}

/// Whether a strategy pins aggregated entries on generation.
pub fn pins_aggregates(strategy: SearchStrategy) -> bool {
    matches!(strategy, SearchStrategy::Pinned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiple_probes_descend() {
        assert_eq!(
            mapping_fetches(SearchStrategy::Multiple, MapGranularity::Zone),
            1
        );
        assert_eq!(
            mapping_fetches(SearchStrategy::Multiple, MapGranularity::Chunk),
            2
        );
        assert_eq!(
            mapping_fetches(SearchStrategy::Multiple, MapGranularity::Page),
            3
        );
    }

    #[test]
    fn bitmap_and_pinned_always_one() {
        for g in [
            MapGranularity::Page,
            MapGranularity::Chunk,
            MapGranularity::Zone,
        ] {
            assert_eq!(mapping_fetches(SearchStrategy::Bitmap, g), 1);
            assert_eq!(mapping_fetches(SearchStrategy::Pinned, g), 1);
        }
    }

    #[test]
    fn only_pinned_pins() {
        assert!(pins_aggregates(SearchStrategy::Pinned));
        assert!(!pins_aggregates(SearchStrategy::Bitmap));
        assert!(!pins_aggregates(SearchStrategy::Multiple));
    }
}
