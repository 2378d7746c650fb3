"""Recorded measured constants for the regression acceptance checks.

Regenerate with `python -m listcontract.benchmarks --write` after
intentional algorithm changes; it runs the functions in
listcontract.benchmarks, and the acceptance suite compares fresh
measurements from the same functions against these within +-10%.
"""

# rounds of one contraction pass vs one 3-coloring, single list of 2**e
PASS_OVER_COLORING_K = {10: 2.6429, 12: 2.6429, 14: 2.6429, 16: 2.6429, 18: 2.6429}

# list_rank rounds, l = 64 fixed, p = n / 6, n = 2**e
FIXED_L_ROUNDS = {12: 53, 13: 53, 14: 53, 15: 53, 16: 53, 17: 53, 18: 53}

# list_rank rounds, single list of length n = 2**e, p = n / 6
SINGLE_LIST_ROUNDS = {12: 65, 14: 69, 16: 71, 18: 73}

# total_work(wyllie) / total_work(list_rank), n = 2**16, lists of length l
WORK_RATIO = {4: 0.4783, 16: 0.7629, 64: 1.0168, 256: 1.2315}

# the work-advantage threshold at l = 256 is recorded, not asserted
# against a theoretical target: with contraction stopped once a pass
# costs more rounds than the jumping it saves, the pipeline does less
# work than pointer jumping at l = 256 (a ratio above 1), and the ratio
# is held to its recorded value within +-10%
WORK_RATIO_AT_256 = WORK_RATIO[256]
