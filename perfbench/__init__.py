"""Encode/scan benchmark for parquet_go_ray; see README.md."""
