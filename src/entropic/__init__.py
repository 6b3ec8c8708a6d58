"""Persistent-entropy signal features with kernel-SVM classification."""

__version__ = "0.1.0"
