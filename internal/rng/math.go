package rng

import "math"

// Thin wrappers keep the hot generator file free of the math import while
// remaining trivially inlinable.

func sqrt(x float64) float64 { return math.Sqrt(x) }

func ln(x float64) float64 { return math.Log(x) }
