"""Tour of the closed-form layer: how long each method survives deletion
traffic, what data is left afterwards, and what training and serving cost.

Run: python demos/closed_form_tour.py
"""

from fedsgt import analytics

L, B, c, D = 10, 10, 5, 50_000

print("=== Deletion tolerance ===")
sgt = analytics.deletion_rate_fedsgt(L, B)
cio = analytics.deletion_rate_fedcio(c)
print(f"FedSGT (L={L}, B={B}): expected requests to total failure = {sgt:.4f}")
print(f"FedCIO (c={c}):        expected requests to total failure = {cio:.4f}")
print(f"ratio: {sgt / cio:.2f}x")

print()
print("=== Occupancy: how many groups have been hit after r requests ===")
for r in (1, 3, 5, 10):
    dist = list(enumerate(analytics.distinct_count_law(L, r)))
    mode = max(dist, key=lambda t: t[1])
    mean = sum(m * p for m, p in dist)
    print(f"r={r:>2}: E[distinct groups] = {float(mean):.3f}, "
          f"mode = {mode[0]} (p = {float(mode[1]):.3f})")

print()
print("=== Dead span of the rotation set ===")
print("Once r requests have landed, the deleted groups cover a cyclic span")
print("E[U]; every sequence whose head falls inside it is dead.")
for r in (1, 2, 5, 10, 20):
    print(f"r={r:>2}: E[span] = {analytics.expected_span(L, r):7.4f} of {L}")

print()
print("=== Remaining usable data ===")
print(f"{'r':>3} {'FedSGT':>12} {'FedCIO':>12}")
for r in (0, 1, 3, 5, 10, 15, 25):
    sgt_r = analytics.expected_remaining_fedsgt(D, L, r)
    cio_r = analytics.expected_remaining_fedcio(D, c, r)
    print(f"{r:>3} {sgt_r:>12.1f} {cio_r:>12.1f}")

print()
print("=== Communication cost of sequential training ===")
for Lx, S in ((2, 2), (10, 2), (10, 5)):
    cost = analytics.expected_comm_cost(Lx, S)
    print(f"L={Lx:>2}, {S} slices/client: E[client rounds] = {cost:.2f} "
          f"(a client only joins once its group enters the sequence)")

print()
print("=== Budget that matches FedAvg's training cost ===")
for T in (5, 10, 20):
    b = analytics.matched_budget(T, L)
    print(f"T={T:>2} FedAvg rounds -> FedSGT can afford B = {b:.2f} sequences")

print()
print("=== Total update counts (P = 1 parameter unit) ===")
params = analytics.AnalyticParams(group_count=L, budget=B,
                                  total_samples=D, rounds=10, epochs=3)
for method in ("FedAvg", "FedCIO", "FedSGT"):
    cost = analytics.training_cost(method, params)
    print(f"{method:>10}: {cost:.3e} updates")
