"""Why a lossy prediction bottleneck hurts conditional coding.

A conditional coder spends H(X | Xq) bits per pixel, where Xq is the
prediction after it went through a lossy bottleneck of step Q. A residual
coder spends H(R) bits on the open-loop difference R = X - Xp. Intuition
says conditioning always wins; the sweep below shows that the bottleneck
flips the ordering for every Q > 1 once the prediction is good enough
(small occlusion probability p).

Run:  python3 demos/entropy_sweep.py
"""

from crlab import sweep_p

M = 64  # small alphabet keeps this instant; shapes are the same at 256

print(f"pixel model, M={M}: X uniform, prediction correct w.p. 1-p\n")

print("p      Q    H(R)     H(X|Xq)  H(R|Xq)   winner")
grid = [0.02, 0.1, 0.3, 0.6, 0.9]
for Q in (1, 2, 64):
    for r in sweep_p(grid, [Q], M=M):
        coder = "conditional" if r.H_X_given_Xphat <= r.H_R else "residual"
        print(f"{r.p:<6} {Q:<4} {r.H_R:<8.4f} {r.H_X_given_Xphat:<8.4f} "
              f"{r.H_R_given_Xphat:<9.4f} {coder}")
    print()

print("Three things to notice:")
print(" * Q=1 (no bottleneck): the conditional coder never loses.")
print(" * Q>1, small p: H(X|Xq) is pinned near log2(Q) by the bottleneck")
print("   while H(R) goes to zero, so the residual coder wins there.")
print(" * H(R|Xq) <= H(R) at every single grid point: coding the residual")
print("   conditionally keeps the residual coder's robustness and adds")
print("   the conditional gain back. That is the whole argument for")
print("   conditional residual coding in one table.\n")

reports = sweep_p([round(0.01 * k, 2) for k in range(1, 101)], [2], M=M)
flips = [
    (a.p, b.p)
    for a, b in zip(reports, reports[1:])
    if (a.H_X_given_Xphat - a.H_R) * (b.H_X_given_Xphat - b.H_R) < 0
]
for lo, hi in flips:
    print(f"at Q=2 the conditional coder starts winning between "
          f"p={lo:g} and p={hi:g}")
