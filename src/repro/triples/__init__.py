"""Triple generation: Beaver multiplication, triple transformation, verifiable
triple sharing, triple extraction, and the preprocessing-phase protocols
(per-dealer ΠTripSh reference and the HIM batch pipeline)."""

from repro.triples.reconstruction import PublicReconstruction
from repro.triples.beaver import BeaverMultiplication
from repro.triples.transform import TripleTransformation, transformed_points
from repro.triples.sharing import TripleSharing, triple_sharing_time_bound
from repro.triples.extraction import TripleExtraction
from repro.triples.preprocessing import (
    OFFLINE_MODES,
    Preprocessing,
    preprocessing_time_bound,
    triples_per_dealer,
    extraction_yield,
)
from repro.triples.him import (
    HimExtractionAbort,
    HimPreprocessing,
    extract_random_shares,
    him_extraction_yield,
    him_preprocessing_time_bound,
    him_slots,
)

__all__ = [
    "PublicReconstruction",
    "BeaverMultiplication",
    "TripleTransformation",
    "transformed_points",
    "TripleSharing",
    "triple_sharing_time_bound",
    "TripleExtraction",
    "OFFLINE_MODES",
    "Preprocessing",
    "preprocessing_time_bound",
    "triples_per_dealer",
    "extraction_yield",
    "HimExtractionAbort",
    "HimPreprocessing",
    "extract_random_shares",
    "him_extraction_yield",
    "him_preprocessing_time_bound",
    "him_slots",
]
