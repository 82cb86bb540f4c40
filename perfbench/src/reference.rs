//! Recorded `batch-d2c` outputs: for a seed, the comparisons Reciprocal CNP
//! retains and how many of them are true duplicates, as the library's
//! composed pipeline produced them when the benchmark was defined. A change
//! that alters either count for a recorded seed changes what the pipeline
//! computes, and the run fails. PC is `detected / |duplicates|` and PQ is
//! `detected / retained`, so equal counts mean equal PC and PQ.

/// `(seed, retained, detected)`.
const BATCH_D2C: &[(u64, u64, u64)] = &[
    (0, 89228, 22856),
    (1, 89688, 22861),
    (2, 88749, 22857),
    (3, 89837, 22851),
    (4, 90227, 22858),
    (5, 91039, 22856),
    (6, 89390, 22858),
    (7, 90584, 22853),
    (8, 89554, 22857),
    (9, 89719, 22856),
    (10, 90770, 22856),
    (11, 89765, 22857),
    (12, 90498, 22855),
    (13, 89272, 22850),
    (14, 90438, 22852),
    (15, 89265, 22856),
    (16, 91753, 22857),
    (17, 90074, 22856),
    (18, 89394, 22859),
    (19, 89689, 22853),
    (20, 90192, 22857),
    (21, 89624, 22855),
    (22, 90684, 22856),
    (23, 90750, 22858),
    (24, 89917, 22857),
    (25, 90529, 22857),
    (26, 90102, 22856),
    (27, 90393, 22860),
    (28, 89693, 22859),
    (29, 89958, 22856),
    (30, 90346, 22856),
    (31, 89441, 22857),
    (32, 89538, 22852),
    (33, 89377, 22852),
    (34, 89490, 22853),
    (35, 90082, 22855),
    (36, 90650, 22854),
    (37, 91027, 22856),
    (38, 88959, 22858),
    (39, 90575, 22858),
    (40, 90579, 22855),
];

/// The recorded `(retained, detected)` for `seed`, if any.
pub fn batch_d2c(seed: u64) -> Option<(u64, u64)> {
    BATCH_D2C.iter().find(|r| r.0 == seed).map(|r| (r.1, r.2))
}
