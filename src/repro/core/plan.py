"""Placeholder for the retired compiled-plan module.

Equations (1)-(11) have one vectorized kernel,
:func:`repro.core.batch.batch_predict`.  This module exists only because
``perfbench/tracing.py`` still runs ``from repro.core import batch, plan``
and looks up ``plan.PredictionPlan``; its tracer skips a ``None`` owner.
Delete it together with that import.
"""

PredictionPlan = None
