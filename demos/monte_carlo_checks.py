"""Cross-check every closed form against brute simulation.

Each quantity gets an independent Monte Carlo estimator; a |z| <= 3
agreement at 100k trials is strong evidence the algebra and the samplers
describe the same process. Estimates are bit-reproducible for a given seed
regardless of worker count.

Run: python demos/monte_carlo_checks.py
"""

import time

from fedsgt.montecarlo import MCConfig, validation_grid

cfg = MCConfig(trials=100_000, seed=42)

start = time.perf_counter()
rows = validation_grid(cfg, workers=4)
elapsed = time.perf_counter() - start

print(f"{'quantity':<28} {'params':<22} {'closed':>10} {'mc':>10} "
      f"{'stderr':>9} {'z':>6}")
for row in rows:
    print(f"{row.quantity:<28} {row.params:<22} {row.closed_form:>10.4f} "
          f"{row.estimate.mean:>10.4f} {row.estimate.stderr:>9.4f} "
          f"{row.zscore:>6.2f}")

worst = max(rows, key=lambda r: abs(r.zscore))
print(f"\n{len(rows)} quantities in {elapsed:.1f}s; worst |z| = "
      f"{abs(worst.zscore):.2f} ({worst.quantity} {worst.params})")

