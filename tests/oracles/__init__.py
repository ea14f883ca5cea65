"""Reference implementations the runtime no longer carries.

Each oracle reproduces a historical code path exactly, so identity tests
can compare the current engine against it without a runtime knob.
"""
