"""Recorded measured constants for the regression acceptance checks.

Regenerate with `python -m listcontract.benchmarks --write` after
intentional algorithm changes; it runs the functions in
listcontract.benchmarks, and the acceptance suite compares fresh
measurements from the same functions against these within +-10%.
"""

# rounds of one contraction pass vs one 3-coloring, single list of 2**e
PASS_OVER_COLORING_K = {10: 2.6429, 12: 2.6429, 14: 2.6429, 16: 2.6429, 18: 2.6429}

# list_rank rounds, l = 64 fixed, p = n / 6, n = 2**e
FIXED_L_ROUNDS = {12: 55, 13: 55, 14: 55, 15: 55, 16: 55, 17: 55, 18: 55}

# list_rank rounds, single list of length n = 2**e, p = n / 6
SINGLE_LIST_ROUNDS = {12: 67, 14: 71, 16: 72, 18: 74}

# total_work(wyllie) / total_work(list_rank), n = 2**16, lists of length l
WORK_RATIO = {4: 0.4583, 16: 0.7327, 64: 0.9792, 256: 1.189}

# the work-advantage threshold at l = 256 is recorded, not asserted
# against a theoretical target: with contraction stopped once a pass
# costs more rounds than the jumping it saves, the pipeline does less
# work than pointer jumping at l = 256 (a ratio above 1), and the ratio
# is held to its recorded value within +-10%
WORK_RATIO_AT_256 = WORK_RATIO[256]
