"""Recorded measured constants for the regression acceptance checks.

Regenerate with `python -m listcontract.benchmarks --write` after
intentional algorithm changes; it runs the functions in
listcontract.benchmarks, and the acceptance suite compares fresh
measurements from the same functions against these within +-10%.
"""

# rounds of one contraction pass vs one 3-coloring, single list of 2**e
PASS_OVER_COLORING_K = {10: 1.4286, 12: 1.4286, 14: 1.4286, 16: 1.4286, 18: 1.4286}

# list_rank rounds, l = 64 fixed, p = n / 6, n = 2**e
FIXED_L_ROUNDS = {12: 34, 13: 34, 14: 34, 15: 34, 16: 34, 17: 34, 18: 34}

# list_rank rounds, single list of length n = 2**e, p = n / 6
SINGLE_LIST_ROUNDS = {12: 43, 14: 45, 16: 47, 18: 49}

# total_work(wyllie) / total_work(list_rank), n = 2**16, lists of length l
WORK_RATIO = {4: 0.8462, 16: 1.2167, 64: 1.5677, 256: 1.8096}

# the work-advantage threshold at l = 256 is recorded, not asserted
# against a theoretical target: with contraction stopped once a pass
# costs more rounds than the jumping it saves, the pipeline does less
# work than pointer jumping at l = 256 (a ratio above 1), and the ratio
# is held to its recorded value within +-10%
WORK_RATIO_AT_256 = WORK_RATIO[256]
