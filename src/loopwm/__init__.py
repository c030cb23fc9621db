"""loopwm: a desk-scale closed-loop plan/generate/critique harness.

Subpackages:
    numerics    float32 MLP and Adam, the working dtype, splittable RNG
    microworld  symbolic domains, frame encoding, demonstration segments
    planner     shortest plans read off each domain's reachable-state graph
    critic      programmatic segment scoring
    worldmodel  conditional flow model, ODE/SDE samplers, flow-matching SFT
    loop        episode engine: inner retries, then outer passes over the same step
    grpo        group-relative policy optimization over denoise trajectories
    bench       task suites, evaluation metrics, comparisons, curves
"""

__version__ = "0.1.0"
