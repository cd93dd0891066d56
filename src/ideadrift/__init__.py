"""Idea eccentricity on social networks.

Replays a time-ordered post log against a follow graph. Each new idea's
cloud is the windowed set of recent posts by its author and everyone the
author follows, summed on demand (fan-in) from per-author prefix sums; the
replay measures how far the idea sits from the center of that cloud
(eccentricity) and from the center of the author's own recent ideas
(self-eccentricity).
Per-user drift is summarized with F/G-scores, and popularity-vs-eccentricity
distributions are compared with kernel density estimates and nonparametric
two-sample tests.
"""

__version__ = "0.1.0"
