"""Mutual causal-attention zero-shot learner on pre-extracted region features."""
