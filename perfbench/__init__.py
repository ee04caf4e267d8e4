"""Seeded end-to-end and per-layer benchmark of the kernelfield CLI pipeline."""
