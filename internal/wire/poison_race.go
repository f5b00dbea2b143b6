//go:build race

package wire

// poisonPut makes PutBuffer overwrite a buffer's bytes in race-detector
// builds: a view still held into a returned frame then reads zeros and
// fails loudly on the next decode or decrypt, even where the scheduler
// never lets another goroutine reuse the buffer in time to race on it.
const poisonPut = true
