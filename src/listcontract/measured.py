"""Recorded measured constants for the regression acceptance checks.

Regenerate with `python -m listcontract.benchmarks --write` after
intentional algorithm changes; it runs the functions in
listcontract.benchmarks, and the acceptance suite compares fresh
measurements from the same functions against these within +-10%.
"""

# rounds of one contraction pass vs one 3-coloring, single list of 2**e
PASS_OVER_COLORING_K = {10: 2.2857, 12: 2.2857, 14: 2.2857, 16: 2.2857, 18: 2.2857}

# list_rank rounds, l = 64 fixed, p = n / 6, n = 2**e
FIXED_L_ROUNDS = {12: 48, 13: 48, 14: 48, 15: 48, 16: 48, 17: 48, 18: 48}

# list_rank rounds, single list of length n = 2**e, p = n / 6
SINGLE_LIST_ROUNDS = {12: 60, 14: 63, 16: 65, 18: 67}

# total_work(wyllie) / total_work(list_rank), n = 2**16, lists of length l
WORK_RATIO = {4: 0.5238, 16: 0.8488, 64: 1.1456, 256: 1.3849}

# the work-advantage threshold at l = 256 is recorded, not asserted
# against a theoretical target: with contraction stopped once a pass
# costs more rounds than the jumping it saves, the pipeline does less
# work than pointer jumping at l = 256 (a ratio above 1), and the ratio
# is held to its recorded value within +-10%
WORK_RATIO_AT_256 = WORK_RATIO[256]
