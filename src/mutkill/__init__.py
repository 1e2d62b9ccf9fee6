"""Mutation-based test generation for MiniImp programs.

Pipeline: parse and lower a program to a transition system that makes one
move per location, generate mutants and merge them into a meta-mutant, explore it with a
forking breadth-first symbolic executor, solve kill constraints into test
inputs, and evaluate everything with a concrete interpreter and kill-matrix
analyses.
"""

__version__ = "0.1.0"
